package main

import (
	"fmt"
	"strconv"

	"gospaces"
	"gospaces/internal/workflow"
)

// traceCmd dispatches the trace subcommands that talk to the group
// (trace replay needs none, see traceReplay):
//
//	trace [n]               render the servers' recent protocol records
//	trace dump <file>       export the merged records as a trace file
//
// args holds everything after "trace".
func traceCmd(client *gospaces.Client, global gospaces.BBox, elem, bits int, args []string) error {
	if len(args) > 0 && args[0] == "dump" {
		if len(args) != 2 {
			return fmt.Errorf("trace dump needs <file>")
		}
		return traceDump(client, global, elem, bits, args[1])
	}
	limit := 0
	if len(args) > 0 {
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return fmt.Errorf("bad limit %q", args[0])
		}
		limit = n
	}
	per, err := client.TraceRecords(limit)
	if err != nil {
		return err
	}
	for sid, resp := range per {
		for _, r := range resp.Raw {
			fmt.Printf("s%d %s\n", sid, r)
		}
	}
	return nil
}

// traceDump exports the group's activity as a durable trace file that
// `dsctl trace replay` executes and checks. It needs every server's
// whole ring: a ring that has wrapped, or a get whose put left no
// record, fails with a *workflow.DumpError.
func traceDump(client *gospaces.Client, global gospaces.BBox, elem, bits int, path string) error {
	per, err := client.TraceRecords(0)
	if err != nil {
		return err
	}
	h, events, err := workflow.DumpTrace(gospaces.TraceHeader{
		Label:    "dsctl dump",
		Servers:  len(per),
		Bits:     bits,
		ElemSize: elem,
		DimX:     global.Max[0] - global.Min[0] + 1,
		DimY:     global.Max[1] - global.Min[1] + 1,
		DimZ:     global.Max[2] - global.Min[2] + 1,
	}, per)
	if err != nil {
		return err
	}
	if err := gospaces.WriteTraceFile(path, h, events); err != nil {
		return err
	}
	fmt.Printf("dumped %d events from %d servers to %s\n", len(events), len(per), path)
	return nil
}

// traceReplay re-executes a trace file — a soak's, a checked-in
// regression trace, or a dump — faults included, against an in-process
// staging group built from its header, and verifies every checked get
// and the header's digest. It needs no -servers.
func traceReplay(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("trace replay needs <file>")
	}
	h, events, err := gospaces.ReadTraceFile(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("replaying %s: %q seed=%d %d events digest=%#x\n", args[0], h.Label, h.Seed, len(events), h.Digest)
	res, err := gospaces.ReplaySoakTrace(h, events)
	if err != nil {
		return err
	}
	fmt.Printf("replay ok: digest=%#x state=%#x puts=%d gets=%d restarts=%d promotions=%d sup-kills=%d retries=%d\n",
		res.Digest, res.StateSum, res.Puts, res.Gets, res.Restarts, res.Promotions, res.SupKills, res.Retries)
	return nil
}
