//go:build race

package figures

// raceEnabled skips the paper-scale digest test under the race detector,
// where it takes tens of seconds and checks nothing the plain run does
// not.
const raceEnabled = true
