package main

import "fixture/internal/lib"

func main() {
	f := lib.UsedByBenchmark
	f()
}
