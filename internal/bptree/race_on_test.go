//go:build race

package bptree

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of the buffers put back, so pool-reuse allocation
// gates only hold without it.
const raceEnabled = true
