//go:build !race

package figures

const raceEnabled = false
