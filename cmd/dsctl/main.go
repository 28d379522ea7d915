// Command dsctl is a client tool for a running staging group: it puts
// and gets synthetic field data, lists staged versions, and dumps
// server accounting — handy for poking at stagingd deployments.
//
// Usage:
//
//	dsctl -servers host:7070,host:7071 -domain 64x64x32 [-elem 8] [-bits 2] <command>
//
// Commands:
//
//	put  <name> <version>   stage the deterministic synthetic field
//	get  <name> <version>   read it back and verify every byte
//	versions <name>         list staged versions
//	check                   send a checkpoint event (workflow_check)
//	trace [n]               render the servers' recent protocol trace
//	trace dump <file>       merge the servers' whole trace rings into a
//	                        trace file that trace replay checks (refused
//	                        once a ring has wrapped)
//	trace replay <file>     re-execute a trace file, faults included,
//	                        against an in-process group built from its
//	                        header (no -servers), verifying every get
//	restart                 switch to replay mode (workflow_restart)
//	stats                   print aggregated staging statistics, the
//	                        replica re-sync (delta vs snapshot) counters
//	                        among them
//	health                  probe each server's liveness, membership
//	                        epoch, stranded slots, and spare status
//	leader                  probe each server's recovery-leadership view:
//	                        lease holder, fencing token, lease expiry,
//	                        and the journaled promotion backlog
//	qos                     probe each server's admission-control view:
//	                        per-tenant quota usage, admit/shed counters,
//	                        lane queue depths, and replication lag
//	tier                    probe each server's cold-tier view: spilled
//	                        entries, spill/promote traffic, scrub and
//	                        degradation state
//	scrub                   trigger a CRC scrub pass over each server's
//	                        spilled records, healing corrupt generations
//	                        from their twins and re-arming degraded tiers
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"gospaces"
)

func main() {
	servers := flag.String("servers", "127.0.0.1:7070", "comma-separated staging server addresses, in id order")
	domainFlag := flag.String("domain", "64x64x32", "global domain extents, e.g. 512x512x256")
	elem := flag.Int("elem", 8, "element size in bytes")
	bits := flag.Int("bits", 2, "DHT refinement bits")
	app := flag.String("app", "dsctl/0", "client identity (component/rank)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-call RPC deadline (0 = none)")
	dialTimeout := flag.Duration("dial-timeout", 5*time.Second, "connection-establishment deadline (0 = none)")
	retries := flag.Int("retries", 4, "RPC attempts per call, including the first")
	retryBase := flag.Duration("retry-base", 50*time.Millisecond, "initial retry backoff (doubles per retry, jittered)")
	flag.Parse()

	opts := gospaces.DefaultDialOptions()
	opts.CallTimeout = *timeout
	opts.DialTimeout = *dialTimeout
	opts.Retry.MaxAttempts = *retries
	opts.Retry.BaseDelay = *retryBase

	if err := run(*servers, *domainFlag, *elem, *bits, *app, opts, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "dsctl: %v\n", err)
		os.Exit(1)
	}
}

func run(servers, domainStr string, elem, bits int, app string, opts gospaces.DialOptions, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("missing command (put/get/versions/check/restart/stats/health/leader/qos/tier/scrub)")
	}
	// A replay builds its own in-process group from the trace header.
	if args[0] == "trace" && len(args) > 1 && args[1] == "replay" {
		return traceReplay(args[2:])
	}
	global, err := parseDomain(domainStr)
	if err != nil {
		return err
	}
	addrs := strings.Split(servers, ",")
	// health probes each address directly — dead servers must show up
	// as rows, not abort pool construction.
	if args[0] == "health" {
		return healthCmd(addrs, opts)
	}
	if args[0] == "leader" {
		return leaderCmd(addrs, opts)
	}
	if args[0] == "qos" {
		return qosCmd(addrs, opts)
	}
	if args[0] == "tier" {
		return tierCmd(addrs, opts)
	}
	if args[0] == "scrub" {
		return scrubCmd(addrs, opts)
	}
	pool, err := gospaces.ConnectWithOptions(addrs, gospaces.StagingConfig{
		Global:   global,
		NServers: len(addrs),
		Bits:     bits,
		ElemSize: elem,
	}, opts)
	if err != nil {
		return err
	}
	client, err := pool.NewClient(app)
	if err != nil {
		return err
	}
	defer client.Close()

	switch args[0] {
	case "put":
		name, version, err := nameVersion(args)
		if err != nil {
			return err
		}
		field := gospaces.NewField(name, global, elem)
		if err := client.PutWithLog(name, version, global, field.Fill(version, global)); err != nil {
			return err
		}
		fmt.Printf("staged %s v%d (%d bytes)\n", name, version, global.Volume()*int64(elem))
	case "get":
		name, version, err := nameVersion(args)
		if err != nil {
			return err
		}
		data, v, err := client.GetWithLog(name, version, global)
		if err != nil {
			return err
		}
		field := gospaces.NewField(name, global, elem)
		if idx := field.Verify(v, global, data); idx >= 0 {
			return fmt.Errorf("%s v%d corrupt at byte %d", name, v, idx)
		}
		fmt.Printf("read %s v%d (%d bytes), verified\n", name, v, len(data))
	case "versions":
		if len(args) < 2 {
			return fmt.Errorf("versions needs a name")
		}
		vs, err := client.Versions(args[1])
		if err != nil {
			return err
		}
		fmt.Println(vs)
	case "check":
		freed, err := client.WorkflowCheck()
		if err != nil {
			return err
		}
		fmt.Printf("checkpoint event sent; GC freed %d bytes\n", freed)
	case "restart":
		n, err := client.WorkflowRestart()
		if err != nil {
			return err
		}
		fmt.Printf("recovery event sent; %d events will replay\n", n)
	case "trace":
		return traceCmd(client, global, elem, bits, args[1:])
	case "stats":
		st, err := client.Stats()
		if err != nil {
			return err
		}
		fmt.Printf("store bytes:      %d\n", st.StoreBytes)
		fmt.Printf("log meta bytes:   %d\n", st.LogMetaBytes)
		fmt.Printf("objects:          %d\n", st.Objects)
		fmt.Printf("puts/gets:        %d/%d\n", st.Puts, st.Gets)
		fmt.Printf("suppressed puts:  %d\n", st.SuppressedPuts)
		fmt.Printf("replay gets:      %d\n", st.ReplayGets)
		fmt.Printf("gc freed bytes:   %d\n", st.GCFreedBytes)
		fmt.Printf("repl seq:         %d (in %d batches)\n", st.ReplSeq, st.ReplBatches)
		fmt.Printf("replica slots:    %d\n", st.ReplicaSlots)
		fmt.Printf("replica bytes:    %d\n", st.ReplicaBytes)
		fmt.Printf("replica records:  %d\n", st.ReplicaRecords)
		fmt.Printf("repl re-syncs:    %d deltas (%d bytes), %d snapshots (%d bytes)\n",
			st.DeltaResyncs, st.DeltaBytes, st.SnapshotsSent, st.SnapshotBytes)
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
	return nil
}

// probeRows is the preamble the health, qos, tier and scrub tables
// share: the rows of servers with nothing to report, and the verdict.
type probeRows struct{ dead, total int }

// skip prints the row of a server that did not answer (DEAD) or that
// runs without the probed feature, and reports whether it did; the
// command prints every other row itself.
func skip[R any](t *probeRows, p gospaces.Probed[R], feature string, id int, enabled bool) bool {
	t.total++
	switch {
	case !p.Alive():
		t.dead++
		fmt.Printf("%-22s DEAD  %s\n", p.Addr, p.Err)
	case !enabled:
		fmt.Printf("%-22s id=%d %s disabled\n", p.Addr, id, feature)
	default:
		return false
	}
	return true
}

func (t probeRows) err() error {
	if t.dead > 0 {
		return fmt.Errorf("%d of %d servers unreachable", t.dead, t.total)
	}
	return nil
}

func healthCmd(addrs []string, opts gospaces.DialOptions) error {
	var rows probeRows
	for _, h := range gospaces.ProbeHealth(addrs, opts) {
		if skip(&rows, h, "", 0, true) {
			continue
		}
		fmt.Println(healthRow(h))
	}
	return rows.err()
}

// healthRow renders one live server's health: its id, the view its
// ping reports (epoch and stranded slots) and its role.
func healthRow(h gospaces.ServerHealth) string {
	role := "member"
	if h.Resp.Spare {
		role = "spare"
	}
	return fmt.Sprintf("%-22s ALIVE id=%d epoch=%d down=%v role=%s",
		h.Addr, h.Resp.ID, h.Resp.View.Epoch, h.Resp.View.Down, role)
}

func leaderCmd(addrs []string, opts gospaces.DialOptions) error {
	holders := map[string]int{}
	backlog := 0
	for _, p := range gospaces.ProbeHealth(addrs, opts) {
		if !p.Alive() {
			fmt.Printf("%-22s DEAD  %s\n", p.Addr, p.Err)
			continue
		}
		v := p.Resp.Lease
		holder := v.Holder
		if holder == "" {
			holder = "<none>"
		} else {
			holders[holder]++
		}
		fmt.Printf("%-22s holder=%-20s token=%d fence=%d expires_in=%v\n",
			p.Addr, holder, v.Token, v.Fence, v.ExpiresIn.Round(time.Millisecond))
		for _, in := range v.Intents {
			backlog++
			fmt.Printf("%22s   intent: slot %d (%s dead) -> spare %s under token %d\n",
				"", in.Slot, in.DeadAddr, in.Spare, in.Token)
		}
	}
	switch len(holders) {
	case 0:
		fmt.Println("no lease held (no supervisor, or all leases expired)")
	case 1:
		for h, n := range holders {
			fmt.Printf("leader: %s (granted by %d of %d servers)\n", h, n, len(addrs))
		}
	default:
		fmt.Printf("WARNING: %d distinct lease holders reported — election in progress\n", len(holders))
	}
	if backlog > 0 {
		fmt.Printf("%d journaled promotion(s) outstanding\n", backlog)
	}
	return nil
}

func qosCmd(addrs []string, opts gospaces.DialOptions) error {
	var rows probeRows
	for _, p := range gospaces.ProbeQoS(addrs, opts) {
		v := p.Resp
		if skip(&rows, p, "qos", v.ID, v.Enabled) {
			continue
		}
		fmt.Printf("%-22s id=%d admits=%d sheds=%d lanes fg=%d rec=%d repl_lag=%d\n",
			p.Addr, v.ID, v.Admits, v.Sheds, v.QueueForeground, v.QueueRecovery, v.ReplLag)
		for _, t := range v.Tenants {
			fmt.Printf("%22s   tenant %-12s prio=%d staging=%s wlog=%s admits=%d sheds=%d\n",
				"", t.Tenant, t.Priority,
				quotaUse(t.StoreBytes, t.StagingQuota), quotaUse(t.WlogBytes, t.WlogQuota),
				t.Admits, t.Sheds)
		}
	}
	return rows.err()
}

// tierState renders a cold tier's degradation flag.
func tierState(degraded bool) string {
	if degraded {
		return "DEGRADED (RAM-only)"
	}
	return "ok"
}

func tierCmd(addrs []string, opts gospaces.DialOptions) error {
	var rows probeRows
	for _, p := range gospaces.ProbeTier(addrs, opts) {
		v := p.Resp
		if skip(&rows, p, "tier", v.ID, v.Enabled) {
			continue
		}
		fmt.Printf("%-22s id=%d %s entries=%d bytes=%d\n", p.Addr, v.ID, tierState(v.Degraded), v.Entries, v.Bytes)
		fmt.Printf("%22s   spills=%d (%d bytes) promotes=%d (%d bytes)\n",
			"", v.Spills, v.SpillBytes, v.Promotes, v.PromoteBytes)
		fmt.Printf("%22s   scrub checked=%d healed=%d lost=%d degraded_events=%d\n",
			"", v.ScrubChecked, v.ScrubHealed, v.ScrubLost, v.DegradedEvents)
	}
	return rows.err()
}

func scrubCmd(addrs []string, opts gospaces.DialOptions) error {
	var rows probeRows
	lost := int64(0)
	for _, p := range gospaces.ScrubTier(addrs, opts) {
		v := p.Resp
		if skip(&rows, p, "tier", v.ID, v.Enabled) {
			continue
		}
		lost += v.Lost
		fmt.Printf("%-22s id=%d %s checked=%d healed=%d lost=%d\n",
			p.Addr, v.ID, tierState(v.Degraded), v.Checked, v.Healed, v.Lost)
	}
	if err := rows.err(); err != nil {
		return err
	}
	if lost > 0 {
		return fmt.Errorf("scrub lost %d entries to double corruption", lost)
	}
	return nil
}

// quotaUse renders used/quota, with "inf" for an unlimited quota.
func quotaUse(used, quota int64) string {
	if quota <= 0 {
		return fmt.Sprintf("%d/inf", used)
	}
	return fmt.Sprintf("%d/%d", used, quota)
}

func nameVersion(args []string) (string, int64, error) {
	if len(args) < 3 {
		return "", 0, fmt.Errorf("%s needs <name> <version>", args[0])
	}
	v, err := strconv.ParseInt(args[2], 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("bad version %q: %v", args[2], err)
	}
	return args[1], v, nil
}

func parseDomain(s string) (gospaces.BBox, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 3 {
		return gospaces.BBox{}, fmt.Errorf("domain must be XxYxZ, got %q", s)
	}
	var ext [3]int64
	for i, p := range parts {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil || v < 1 {
			return gospaces.BBox{}, fmt.Errorf("bad extent %q", p)
		}
		ext[i] = v
	}
	return gospaces.Box3(0, 0, 0, ext[0]-1, ext[1]-1, ext[2]-1), nil
}
