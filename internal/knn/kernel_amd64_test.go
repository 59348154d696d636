//go:build amd64 && !purego

package knn

import (
	"os"
	"strings"
	"testing"
)

// TestDispatchAgreesWithKernelFlags holds the hand-rolled CPUID/XGETBV
// probe to the kernel's own reading of the CPU: a wrong bit would send
// every scan down the portable path and fail nothing else.
func TestDispatchAgreesWithKernelFlags(t *testing.T) {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare against: %v", err)
	}
	want := "portable"
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "flags") {
			continue
		}
		has := map[string]bool{}
		for _, f := range strings.Fields(line) {
			has[f] = true
		}
		if has["avx512f"] && has["avx512_vpopcntdq"] {
			want = "avx512"
		}
		break
	}
	if got := KernelImpl(); got != want {
		t.Errorf("KernelImpl() = %q, /proc/cpuinfo says %q", got, want)
	}
}
