package staging

import (
	"errors"
	"fmt"
)

// StaleEpochError rejects a call stamped with a membership epoch older
// than the server's: the client is routing on a superseded server set
// and must re-bind (fetch the current membership, re-dial changed
// slots) before retrying.
type StaleEpochError struct {
	Client uint64 // epoch the call was stamped with
	Server uint64 // epoch the server holds
}

func (e *StaleEpochError) Error() string {
	return fmt.Sprintf("staging: stale membership epoch: client at %d, server at %d", e.Client, e.Server)
}

// IsStaleEpoch reports whether err's chain holds a stale-epoch
// redirect. The type is a registered wire message, so the chain looks
// the same behind a remote transport (transport.RemoteError unwraps to
// the decoded cause) as in process.
func IsStaleEpoch(err error) bool {
	var se *StaleEpochError
	return errors.As(err, &se)
}
