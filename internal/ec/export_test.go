package ec

// setWorkers fixes the worker count of the coding kernels for a test —
// 1 is the serial kernel the chunked one is checked against, 0 the
// default (GOMAXPROCS) — and returns the previous setting.
func setWorkers(n int) int {
	prev := ecWorkers
	ecWorkers = n
	return prev
}
