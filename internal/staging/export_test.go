package staging

import "gospaces/internal/transport"

// NewTap is the tap decorator of repl_commit_test.go for the tests
// outside the package, which drive a recovery.Supervisor: before and
// after see every request out of its envelopes.
func NewTap(inner transport.Transport, before func(addr string, req any), after func(addr string, req, resp any)) transport.Transport {
	return &tapTransport{Transport: inner, before: before, after: after}
}
