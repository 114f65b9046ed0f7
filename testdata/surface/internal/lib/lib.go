// Package lib declares what the surface gate's fixture checks: each name
// says who calls it.
package lib

// T carries one live and one dead method.
type T struct{}

func Dead()            {}
func TestOnly()        {}
func KitOnly()         {}
func UsedByCmd()       { liveHelper() }
func UsedByExample()   {}
func UsedByBenchmark() {}

// Recursive calls itself and has a caller in cmd/.
func Recursive(n int) {
	if n > 0 {
		Recursive(n - 1)
	}
}

func (T) LiveMethod() {}
func (T) DeadMethod() {}

func liveHelper() {}
func deadHelper() {}

// selfOnly is referenced from its own body only.
func selfOnly(n int) {
	if n > 0 {
		selfOnly(n - 1)
	}
}
