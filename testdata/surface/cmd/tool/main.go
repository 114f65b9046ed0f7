package main

import "fixture/internal/lib"

func main() {
	lib.UsedByCmd()
	lib.Recursive(1)
	lib.T{}.LiveMethod()
}

func unusedInMain() {}
