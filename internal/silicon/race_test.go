//go:build race

package silicon

func init() { raceEnabled = true }
