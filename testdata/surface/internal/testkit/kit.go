// Package testkit counts as test code: its calls keep nothing alive.
package testkit

import "fixture/internal/lib"

func Use() { lib.KitOnly() }
