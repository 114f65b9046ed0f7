package lib

import "testing"

func TestCalls(t *testing.T) {
	TestOnly()
	deadHelper()
	T{}.DeadMethod()
}
