//go:build race

package scratchmem

func init() { raceEnabled = true }
