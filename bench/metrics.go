package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// metricDef names one metric. BENCHMARK.json carries the same lists for
// the driver; a test fails when the two differ.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the staging service sees, measured with
// tracing off. Every workload reports every one; what "recovery" is
// differs by workload and is spelled out in the README. Bound is the
// share of the parent's median a metric may worsen by.
//
// All but two are ratios taken inside one run, against the unlogged arm
// or against the raw-socket floor: on the shared sandbox absolute
// latencies drift by 30-50 % for minutes at a time (a neighbour's load),
// which no bound of at most a quarter survives, while these ratios held
// within a few percent through the same spells. The absolute numbers
// are printed with every run and live under per-layer (client.*).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"put_overhead_ratio", "ratio", "lower", 0.15},
	{"get_overhead_ratio", "ratio", "lower", 0.20},
	{"put_wire_x", "ratio", "lower", 0.25},
	{"get_wire_x", "ratio", "lower", 0.25},
	{"recovery_ms_p50", "ms", "lower", 0.25},
	{"mem_overhead_ratio", "ratio", "lower", 0.02},
}

// perLayer is the budget under the end-to-end numbers, from the traced
// run: span self times, the servers' own counters, and the probes. They
// have no bound; the README says which end-to-end metric each should move.
var perLayer = []metricDef{
	// client (staging.Client)
	{Name: "client.put_self_us", Unit: "us", Better: "lower"},
	{Name: "client.get_self_us", Unit: "us", Better: "lower"},
	{Name: "client.rpcs_per_put", Unit: "count", Better: "lower"},
	{Name: "client.put_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "client.get_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "client.goodput_mib_s", Unit: "MiB/s", Better: "higher"},
	{Name: "client.check_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "client.put_sum_ratio", Unit: "ratio", Better: "lower"},
	{Name: "client.get_sum_ratio", Unit: "ratio", Better: "lower"},
	{Name: "client.put_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "client.get_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "client.replay_get_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "client.suppressed_put_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "client.restart_ms_p50", Unit: "ms", Better: "lower"},
	// transport + codec (the wire)
	{Name: "transport.put_wire_self_us", Unit: "us", Better: "lower"},
	{Name: "transport.get_wire_self_us", Unit: "us", Better: "lower"},
	{Name: "transport.null_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.wire_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "transport.retries", Unit: "count", Better: "lower"},
	{Name: "codec.put_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "codec.put_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "codec.getresp_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "codec.getresp_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "codec.gob_payload_frac", Unit: "ratio", Better: "lower"},
	// staging (the server pipeline)
	{Name: "staging.handle_put_self_us", Unit: "us", Better: "lower"},
	{Name: "staging.handle_get_self_us", Unit: "us", Better: "lower"},
	{Name: "staging.logged_delta_us", Unit: "us", Better: "lower"},
	{Name: "staging.repl_flush_us", Unit: "us", Better: "lower"},
	{Name: "staging.repl_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "staging.ingest_copy_crc_frac", Unit: "ratio", Better: "higher"},
	{Name: "staging.server_put_share", Unit: "ratio", Better: "higher"},
	{Name: "staging.suppressed_puts", Unit: "count", Better: "higher"},
	{Name: "staging.replay_gets", Unit: "count", Better: "higher"},
	// qos, metrics
	{Name: "qos.lane_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "qos.admit_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "qos.sheds", Unit: "count", Better: "lower"},
	{Name: "metrics.counter_lookup_ns", Unit: "ns", Better: "lower"},
	// wlog
	{Name: "wlog.put_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "wlog.get_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "wlog.checkpoint_us", Unit: "us", Better: "lower"},
	{Name: "wlog.recovery_us", Unit: "us", Better: "lower"},
	{Name: "wlog.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "wlog.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "wlog.meta_bytes_per_event", Unit: "bytes", Better: "lower"},
	// store
	{Name: "store.put_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "store.get_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "store.gc_us", Unit: "us", Better: "lower"},
	{Name: "store.resident_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	// domain, dht
	{Name: "domain.extract_ns_per_kib", Unit: "ns/KiB", Better: "lower"},
	{Name: "domain.copyregion_ns_per_kib", Unit: "ns/KiB", Better: "lower"},
	{Name: "dht.route_ns_per_op", Unit: "ns", Better: "lower"},
	// tier, pfs
	{Name: "tier.spills", Unit: "count", Better: "lower"},
	{Name: "tier.promotes", Unit: "count", Better: "lower"},
	{Name: "tier.spill_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "tier.spill_self_us_per_obj", Unit: "us", Better: "lower"},
	{Name: "tier.promote_us_per_version", Unit: "us", Better: "lower"},
	{Name: "tier.gc_us", Unit: "us", Better: "lower"},
	{Name: "pfs.ops_per_spill", Unit: "count", Better: "lower"},
	{Name: "pfs.busy_frac_of_put", Unit: "ratio", Better: "lower"},
	{Name: "pfs.write_us_p50", Unit: "us", Better: "lower"},
	{Name: "pfs.read_us_p50", Unit: "us", Better: "lower"},
	// health, recovery
	{Name: "health.detect_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "recovery.restore_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "recovery.replace_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "recovery.push_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "recovery.quiet_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "recovery.failover_read_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "recovery.log_bytes", Unit: "bytes", Better: "lower"},
	// floor: the machine's own speed, measured in the same run
	{Name: "floor.memcpy_gib_s", Unit: "GiB/s", Better: "higher"},
	{Name: "floor.crc32c_gib_s", Unit: "GiB/s", Better: "higher"},
	{Name: "floor.tcp_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "floor.wire_ms_per_mib", Unit: "ms/MiB", Better: "lower"},
	// trace: what the tracing itself costs and misses
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.unattributed_frac", Unit: "ratio", Better: "lower"},
}

// value is one measured metric: the number, its unit and how many
// samples it rests on (0 for counts and ratios of sums).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// withUnits fills in the unit of every value from defs, and reports a
// name that is declared but not measured, or measured but not declared.
func withUnits(defs []metricDef, vals map[string]value) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		v.Unit = d.Unit
		out[d.Name] = v
	}
	if len(vals) != len(defs) {
		for name := range vals {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is measured but not declared", name)
			}
		}
	}
	return out, nil
}

const mib = 1 << 20

// endToEndValues computes the end-to-end metrics of an untraced run.
func (r *run) endToEndValues() map[string]value {
	s := &r.s
	return map[string]value{
		"setup_s":            {Value: median(s.setupGen) + median(s.setupStack), N: len(s.setupStack)},
		"put_overhead_ratio": {Value: median(s.stepPut), N: len(s.stepPut)},
		"get_overhead_ratio": {Value: median(s.stepGet), N: len(s.stepGet)},
		"put_wire_x":         {Value: median(s.stepPutWire), N: len(s.stepPutWire)},
		"get_wire_x":         {Value: median(s.stepGetWire), N: len(s.stepGetWire)},
		"recovery_ms_p50":    {Value: median(s.recover), N: len(s.recover)},
		"mem_overhead_ratio": {Value: ratio(s.mem[logged], s.mem[unlogged]), N: s.memSamples},
	}
}

// declared is the part of defs, in order, that vals has a value for.
func declared(defs []metricDef, vals map[string]value) []metricDef {
	var out []metricDef
	for _, d := range defs {
		if _, ok := vals[d.Name]; ok {
			out = append(out, d)
		}
	}
	return out
}

// absoluteValues are the client-observed numbers in the machine's own
// units: per-layer metrics of the traced run, and printed (not bounded)
// with every untraced one.
func (r *run) absoluteValues() map[string]value {
	s := &r.s
	return map[string]value{
		"client.put_ms_p50":     {Value: median(s.put[logged]), N: len(s.put[logged])},
		"client.get_ms_p50":     {Value: median(s.get[logged]), N: len(s.get[logged])},
		"client.goodput_mib_s":  {Value: median(s.stepGoodput), N: len(s.stepGoodput)},
		"client.check_ms_p50":   {Value: median(s.check), N: len(s.check)},
		"client.put_sum_ratio":  {Value: ratio(sum(s.put[logged]), sum(s.put[unlogged])), N: len(s.put[logged])},
		"client.get_sum_ratio":  {Value: ratio(sum(s.get[logged]), sum(s.get[unlogged])), N: len(s.get[logged])},
		"floor.wire_ms_per_mib": {Value: median(s.stepFloor), N: len(s.stepFloor)},
	}
}

// opMedianMs is the client-observed time of the four coupled calls, each
// at its median: the quantity the tracing overhead is a ratio of.
func (s *samples) opMedianMs() float64 {
	return median(s.put[logged]) + median(s.get[logged]) + median(s.put[unlogged]) + median(s.get[unlogged])
}

// perLayerValues computes the per-layer metrics: refMs is opMedianMs of the
// untraced reference segments, r the traced run, b its span breakdown,
// probe the single-layer timings.
func perLayerValues(refMs float64, r *run, b breakdown, probe map[string]float64) map[string]value {
	s := &r.s
	const putOp, getOp = "op:put.logged", "op:get.logged"
	out := map[string]value{}
	for name, v := range probe {
		out[name] = value{Value: v}
	}
	for name, v := range r.absoluteValues() {
		out[name] = v
	}
	set := func(name string, v float64, n int) { out[name] = value{Value: v, N: n} }

	nput, nget := b.ops[putOp], b.ops[getOp]
	set("client.put_self_us", b.perOpMicros(putOp, putOp), nput)
	set("client.get_self_us", b.perOpMicros(getOp, getOp), nget)
	set("client.rpcs_per_put", ratio(float64(b.count[putOp]["call:PutReq"]), float64(nput)), nput)
	pt, _ := tail(s.put[logged])
	gt, _ := tail(s.get[logged])
	set("client.put_ms_tail", pt, len(s.put[logged]))
	set("client.get_ms_tail", gt, len(s.get[logged]))
	set("client.replay_get_ms_p50", median(s.replayGet), len(s.replayGet))
	set("client.suppressed_put_ms_p50", median(s.suppressedPut), len(s.suppressedPut))
	set("client.restart_ms_p50", median(s.restart), len(s.restart))

	set("transport.put_wire_self_us", b.perOpMicros(putOp, "call:PutReq"), nput)
	set("transport.get_wire_self_us", b.perOpMicros(getOp, "call:GetReq"), nget)
	d, du := r.delta[logged], r.delta[unlogged]
	set("transport.wire_bytes_per_user_byte", ratio(float64(d[cWireBytes]), float64(s.userBytes)), 0)
	set("transport.retries", float64(d[cRetries]+du[cRetries]), 0)
	set("codec.gob_payload_frac", ratio(float64(d[cGob]), float64(d[cGob]+d[cFast])), 0)

	handlePut := b.perOpMicros(putOp, "handle:PutReq")
	set("staging.handle_put_self_us", handlePut, nput)
	set("staging.handle_get_self_us", b.perOpMicros(getOp, "handle:GetReq"), nget)
	set("staging.logged_delta_us", handlePut-b.perOpMicros("op:put.unlogged", "handle:PutReq"), nput)
	set("staging.repl_flush_us", b.perOpMicros(putOp, "call:ReplApplyReq")+b.perOpMicros(putOp, "handle:ReplApplyReq"), nput)
	version := float64(domainBytes(r.w))
	set("staging.repl_bytes_per_user_byte", ratio(s.replicaBytes/float64(max(s.memSamples, 1)), version), s.memSamples)
	set("store.resident_bytes_per_user_byte", ratio(s.storeBytes/float64(max(s.memSamples, 1)), version), s.memSamples)
	// The two payload walks of an ingest, at the machine's measured
	// speed, as a share of what the handler spends on a put.
	pieceGiB := float64(len(r.prodBuf[0][0])) / float64(r.w.rpcsPerPut) / (1 << 30)
	walksUs := float64(r.w.rpcsPerPut) * (ratio(pieceGiB, probe["floor.memcpy_gib_s"]) + ratio(pieceGiB, probe["floor.crc32c_gib_s"])) * 1e6
	set("staging.ingest_copy_crc_frac", ratio(walksUs, handlePut), nput)
	putMs := sum(s.put[logged]) + sum(s.suppressedPut)
	set("staging.server_put_share", ratio(float64(d[cPutNanos])/1e6, putMs), 0)
	set("staging.suppressed_puts", float64(d[cSuppressed]), 0)
	set("staging.replay_gets", float64(d[cReplayGets]), 0)
	set("qos.sheds", float64(d[cSheds]+du[cSheds]), 0)

	set("tier.spills", float64(d[cSpills]), 0)
	set("tier.promotes", float64(d[cPromotes]), 0)
	putBytes := float64(s.puts) * float64(len(r.prodBuf[0][0]))
	set("tier.spill_bytes_per_user_byte", ratio(float64(d[cSpillBytes]), putBytes), 0)
	// A spilling handler demotes whole versions; spread its extra self
	// time over the objects the tier counted.
	set("tier.spill_self_us_per_obj", ratio(b.spillSelfUs*float64(b.spillHandles), float64(d[cSpills])), b.spillHandles)
	set("tier.promote_us_per_version", b.promoteUs, b.promoteHandles)
	var pfsPut, pfsCheck int64
	var pfsOps int
	for name, ns := range b.self[putOp] {
		if strings.HasPrefix(name, "pfs:") {
			pfsPut += ns
			pfsOps += b.count[putOp][name]
		}
	}
	for name, ns := range b.self["op:check"] {
		if strings.HasPrefix(name, "pfs:") {
			pfsCheck += ns
		}
	}
	set("tier.gc_us", ratio(float64(pfsCheck)/1e3, float64(b.ops["op:check"])), b.ops["op:check"])
	set("pfs.ops_per_spill", ratio(float64(pfsOps), float64(d[cSpills])), 0)
	set("pfs.busy_frac_of_put", ratio(float64(pfsPut), float64(b.opNanos[putOp])), nput)
	set("pfs.write_us_p50", median(b.dur["pfs:Write"]), len(b.dur["pfs:Write"]))
	set("pfs.read_us_p50", median(b.dur["pfs:Read"]), len(b.dur["pfs:Read"]))

	for metric, stage := range map[string]string{
		"health.detect_ms_p50": "detect", "recovery.restore_ms_p50": "restore",
		"recovery.replace_ms_p50": "replace", "recovery.push_ms_p50": "push",
		"recovery.quiet_ms_p50": "quiet",
	} {
		set(metric, median(s.stage[stage]), len(s.stage[stage]))
	}
	set("recovery.failover_read_ms_p50", median(s.failoverRead), len(s.failoverRead))
	set("recovery.log_bytes", median(s.recoveryLogBytes), len(s.recoveryLogBytes))

	set("trace.overhead_frac", ratio(s.opMedianMs(), refMs)-1, len(s.put[logged]))
	set("trace.unattributed_frac", b.unattributed(), 0)
	return out
}

func domainBytes(w workload) int64 { return w.global.Volume() * elemSize }
