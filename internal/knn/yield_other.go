//go:build !linux

package knn

// osYield is a no-op where the kernel's yield is not wired up: a polling
// helper spins between looks at jobSlot (see yield_linux.go).
func osYield() {}
