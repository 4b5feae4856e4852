package main

// seededOrder returns a permutation of 0..n-1 drawn from seed with a
// SplitMix64 stream, so a workload's input order depends on the seed alone
// and not on the Go release's math/rand.
func seededOrder(seed int64, n int) []int {
	state := uint64(seed)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return order
}
