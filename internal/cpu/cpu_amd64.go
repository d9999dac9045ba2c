//go:build amd64 && !purego

package cpu

// probe reads CPUID and XCR0 once; implemented in cpu_amd64.s.
func probe() Level
