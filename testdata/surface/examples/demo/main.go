package main

import l "fixture/internal/lib"

func main() { l.UsedByExample() }
