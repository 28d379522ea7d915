package workflow

import (
	"fmt"
	"sort"

	"gospaces/internal/staging"
	"gospaces/internal/trace"
)

// DumpError is a dump refused because the servers' observability rings
// cannot supply a field the replay needs: Missing names it ("history"
// when a ring wrapped and evicted records, "put" when a get's put left
// no record, e.g. because it was unlogged).
type DumpError struct {
	Missing string
	Detail  string
}

func (e *DumpError) Error() string {
	return fmt.Sprintf("workflow: dump cannot replay, no %s: %s", e.Missing, e.Detail)
}

// DumpTrace turns the servers' observability rings (Client.TraceRecords
// with no limit, indexed by server id) into a trace ReplayTrace
// executes and checks, under header h. The rings merge on wall-clock
// order, and a sharded call, which leaves one record per server it
// touched, collapses to one event: a client issues its calls one after
// another, so a record repeating the previous record of the same App
// belongs to the same call. Every put and get spans the header's domain.
// A put replays the generator payload seeded by its version, and each
// get carries the sum of its put's payload; h.Digest is their ordered
// fold. A ring that wrapped, or a get whose put is not in the rings, is
// a *DumpError.
func DumpTrace(h trace.Header, per []staging.TraceResp) (trace.Header, []trace.Event, error) {
	size, ok := putSize(h)
	if !ok {
		return h, nil, fmt.Errorf("workflow: dump header describes no domain: %+v", h)
	}
	var recs []trace.Record
	for sid, r := range per {
		if r.Total > uint64(len(r.Raw)) {
			return h, nil, &DumpError{Missing: "history", Detail: fmt.Sprintf(
				"server %d's ring wrapped: %d of %d records retained", sid, len(r.Raw), r.Total)}
		}
		recs = append(recs, r.Raw...)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].At.Before(recs[j].At) })
	last := map[string]string{} // each App's previous record, as a collapse key
	seeds := map[string]int64{} // each staged name@version's put seed
	h.Digest = 0
	var events []trace.Event
	for _, r := range recs {
		// A checkpoint's id and a recovery's script length are per
		// server; only a lock record's detail (its verb) tells calls apart.
		key := fmt.Sprintf("%d|%s|%d", r.Op, r.Name, r.Version)
		if r.Op == trace.OpLock {
			key += "|" + r.Detail
		}
		if last[r.App] == key {
			continue
		}
		last[r.App] = key
		ev := fromRecord(r)
		obj := fmt.Sprintf("%s@%d", ev.Name, ev.Version)
		switch ev.Kind {
		case trace.EvPut:
			ev.Bytes = size
			seeds[obj] = ev.Seed
		case trace.EvGet:
			seed, ok := seeds[obj]
			if !ok {
				return h, nil, &DumpError{Missing: "put", Detail: fmt.Sprintf(
					"%s v%d is read by %s but its put left no record", ev.Name, ev.Version, ev.App)}
			}
			ev.Bytes = size
			ev.Sum = payloadSum(soakPayload(seed, size))
			h.Digest = foldDigest(h.Digest, ev.Sum)
		}
		ev.LC = uint64(len(events))
		events = append(events, ev)
	}
	return h, events, nil
}

// lockKinds maps a lock record's Detail to its event: the ring folds
// the four lock verbs into OpLock, and a failed attempt (Detail ends in
// " err") maps to nothing.
var lockKinds = map[string]trace.EventKind{
	"acquire write": trace.EvLock, "release write": trace.EvUnlock,
	"acquire read": trace.EvRLock, "release read": trace.EvRUnlock,
}

// fromRecord converts one ring record into a trace event. Ring records
// carry no payload, so a put's seed is its version. Only the logged
// data path leaves records, so puts and gets replay logged. A
// suppressed put is a note: the executor's restart re-issues the
// producer's logged puts itself. Operations with no replay semantics,
// and failed lock attempts, are notes too.
func fromRecord(r trace.Record) trace.Event {
	e := trace.Event{App: r.App, Name: r.Name, Version: r.Version, Seed: r.Version, Kind: trace.EvNote}
	switch r.Op {
	case trace.OpPut:
		e.Kind, e.Logged = trace.EvPut, true
	case trace.OpGet, trace.OpReplayGet:
		e.Kind, e.Logged = trace.EvGet, true
	case trace.OpCheckpoint:
		e.Kind = trace.EvCheckpoint
	case trace.OpRecovery:
		e.Kind = trace.EvRestart
	case trace.OpLock:
		if k, ok := lockKinds[r.Detail]; ok {
			e.Kind = k
		}
	}
	return e
}
