// Package rap holds no code of its own: the RAP sender is
// transport.RAP. The aliases exist only because bench/, which an
// ordinary PR may not edit, names rap.Config, rap.Sender and
// rap.NewSender at five call sites; they are owed to the next
// benchmark-archetype PR, beside sim.ReplaySched's kind argument. The
// package's tests are the sender's behaviour suite and its differential
// against the pre-Base implementation (rap_ref_test.go).
package rap

import "qav/internal/transport"

type (
	Config = transport.RAPConfig
	Sender = transport.RAP
)

// NewSender returns transport.NewRAP(cfg).
func NewSender(cfg Config) *Sender { return transport.NewRAP(cfg) }
