// Package hidden sits in a dot-directory, which the gate does not read.
package hidden

import "fixture/internal/lib"

func Use() { lib.Dead() }
