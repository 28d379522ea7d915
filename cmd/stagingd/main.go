// Command stagingd runs one gospaces staging server over TCP.
//
// A staging area is a group of stagingd processes; clients (dsctl or
// applications using gospaces.Connect) are configured with the full
// ordered address list plus the shared domain geometry.
//
// Usage:
//
//	stagingd -addr :7070 -id 0          # one server
//	stagingd -addr :7070 -servers 4     # a whole group, ports 7070..7073
//	stagingd -addr :7080 -id 4 -spare   # a warm spare awaiting promotion
//
// With -wlog-replicas k each server ships its event log to its k
// membership successors; group mode wires the membership itself, while
// single-server mode needs -peers with the full ordered address list.
//
// Each server also hosts its share of the recovery-leadership state:
// a lease record granted to whichever supervisor wins election, the
// fencing high-water mark, and the journaled promotion intents.
// Redundant supervisors may supervise one group; `dsctl leader` shows
// the current holder, token, and promotion backlog.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gospaces"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address (host:port); with -servers > 1 the port is the base")
	id := flag.Int("id", 0, "server id within the staging group (single-server mode)")
	servers := flag.Int("servers", 1, "launch a whole group of n servers on consecutive ports")
	chaosSeed := flag.Int64("chaos-seed", 1, "seed for the fault-injection schedule")
	chaosDelayProb := flag.Float64("chaos-delay-prob", 0, "probability a handled request is delayed (fault injection)")
	chaosDelay := flag.Duration("chaos-delay", 20*time.Millisecond, "injected per-request delay")
	chaosHangProb := flag.Float64("chaos-hang-prob", 0, "probability a handled request hangs (client sees a dropped response)")
	chaosHang := flag.Duration("chaos-hang", 30*time.Second, "injected hang duration; set beyond client deadlines")
	spare := flag.Bool("spare", false, "start as a warm spare outside the membership, awaiting promotion by a recovery supervisor")
	wlogReplicas := flag.Int("wlog-replicas", 0, "replicate the event log (and staged payloads) to this many membership successors; 0 disables")
	peers := flag.String("peers", "", "ordered comma-separated address list of the whole staging group (single-server mode); required for -wlog-replicas so the server can find its successors")
	qosTenants := flag.String("qos-tenants", "", "enable admission control with per-tenant quotas: semicolon-separated specs 'tenant:staging=BYTES,wlog=BYTES,prio=N' (omitted limits are unlimited), e.g. 'lo:staging=4096,prio=0;hi:prio=2'")
	qosHighWater := flag.Float64("qos-highwater", 0, "staging-RAM fraction above which low-priority tenants are shed (0 = default 0.7; needs -qos-tenants)")
	tierDir := flag.String("tier-dir", "", "attach a PFS cold tier backed by this directory: cold logged versions demote to it under budget pressure instead of shedding the put; needs -mem-budget")
	memBudget := flag.Int64("mem-budget", 0, "cap resident staged bytes per server (0 = unlimited)")
	flag.Parse()

	opts := gospaces.ServeOptions{
		ChaosSeed:      *chaosSeed,
		ChaosDelayProb: *chaosDelayProb,
		ChaosDelay:     *chaosDelay,
		ChaosHangProb:  *chaosHangProb,
		ChaosHang:      *chaosHang,
		Spare:          *spare,
		WlogReplicas:   *wlogReplicas,
	}
	if *qosTenants != "" {
		qcfg, err := parseQoS(*qosTenants, *qosHighWater)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stagingd: %v\n", err)
			os.Exit(1)
		}
		opts.QoS = qcfg
	}
	if err := applyTierFlags(&opts, *tierDir, *memBudget); err != nil {
		fmt.Fprintf(os.Stderr, "stagingd: %v\n", err)
		os.Exit(1)
	}
	if *chaosDelayProb > 0 || *chaosHangProb > 0 {
		fmt.Printf("stagingd: CHAOS MODE: delay p=%.2f (%v), hang p=%.2f (%v), seed %d\n",
			*chaosDelayProb, *chaosDelay, *chaosHangProb, *chaosHang, *chaosSeed)
	}

	var running []*gospaces.StagingServer
	if *servers <= 1 {
		srv, err := gospaces.ServeWithOptions(*addr, *id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stagingd: %v\n", err)
			os.Exit(1)
		}
		role := ""
		if *spare {
			role = " (spare)"
		}
		if *peers != "" && !*spare {
			srv.SetMembership(1, strings.Split(*peers, ","))
		}
		fmt.Printf("stagingd: server %d listening on %s%s\n", *id, srv.Addr(), role)
		running = append(running, srv)
	} else {
		host, base, err := splitHostPort(*addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stagingd: %v\n", err)
			os.Exit(1)
		}
		var addrs []string
		for i := 0; i < *servers; i++ {
			srv, err := gospaces.ServeWithOptions(fmt.Sprintf("%s:%d", host, base+i), i, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "stagingd: server %d: %v\n", i, err)
				os.Exit(1)
			}
			running = append(running, srv)
			addrs = append(addrs, srv.Addr())
		}
		// Replication successors are resolved through the membership
		// view, which only exists once every member is listening.
		for _, srv := range running {
			srv.SetMembership(1, addrs)
		}
		fmt.Printf("stagingd: group of %d servers up\n", *servers)
		fmt.Printf("stagingd: dsctl -servers %s\n", strings.Join(addrs, ","))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("stagingd: shutting down")
	for _, srv := range running {
		if err := srv.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "stagingd: close: %v\n", err)
			os.Exit(1)
		}
	}
}

// parseQoS builds the admission-control config from the -qos-tenants
// spec: semicolon-separated 'tenant:staging=BYTES,wlog=BYTES,prio=N'
// entries where each limit is optional (absent means unlimited).
func parseQoS(spec string, highWater float64) (*gospaces.QoSConfig, error) {
	cfg := &gospaces.QoSConfig{Tenants: map[string]gospaces.QoSQuota{}, HighWater: highWater}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, limits, _ := strings.Cut(entry, ":")
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("qos spec %q: empty tenant name", entry)
		}
		var q gospaces.QoSQuota
		if limits != "" {
			for _, kv := range strings.Split(limits, ",") {
				key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
				if !ok {
					return nil, fmt.Errorf("qos spec %q: limit %q not key=value", entry, kv)
				}
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("qos spec %q: bad value %q", entry, val)
				}
				switch key {
				case "staging":
					q.StagingBytes = n
				case "wlog":
					q.WlogBytes = n
				case "prio":
					q.Priority = int(n)
				default:
					return nil, fmt.Errorf("qos spec %q: unknown limit %q (want staging/wlog/prio)", entry, key)
				}
			}
		}
		cfg.Tenants[name] = q
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("qos spec %q names no tenants", spec)
	}
	return cfg, nil
}

// applyTierFlags validates and installs the cold-tier flags: the tier
// needs a directory and a memory budget (otherwise nothing ever spills).
func applyTierFlags(opts *gospaces.ServeOptions, dir string, budget int64) error {
	if budget < 0 {
		return fmt.Errorf("-mem-budget %d is negative", budget)
	}
	if dir == "" {
		opts.MemoryBudget = budget
		return nil
	}
	if budget == 0 {
		return fmt.Errorf("-tier-dir needs -mem-budget: without a budget nothing ever spills")
	}
	opts.TierDir = dir
	opts.MemoryBudget = budget
	return nil
}

// splitHostPort parses "host:port" with a numeric port (host may be
// empty for all interfaces).
func splitHostPort(addr string) (string, int, error) {
	i := strings.LastIndex(addr, ":")
	if i < 0 {
		return "", 0, fmt.Errorf("address %q missing port", addr)
	}
	port, err := strconv.Atoi(addr[i+1:])
	if err != nil || port <= 0 {
		return "", 0, fmt.Errorf("bad port in %q", addr)
	}
	return addr[:i], port, nil
}
