package failure

import (
	"testing"
	"time"
)

func targets() []Target {
	return []Target{{Component: "sim", Ranks: 256}, {Component: "ana", Ranks: 64}}
}

func TestExponentialDeterministic(t *testing.T) {
	a, err := Exponential(42, 10*time.Minute, 3, time.Hour, targets())
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Exponential(42, 10*time.Minute, 3, time.Hour, targets())
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("lens %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c, _ := Exponential(43, 10*time.Minute, 3, time.Hour, targets())
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical schedules")
	}
}

func TestExponentialWithinHorizonAndSorted(t *testing.T) {
	horizon := 40 * time.Minute
	s, err := Exponential(7, 10*time.Minute, 10, horizon, targets())
	if err != nil {
		t.Fatal(err)
	}
	for i, inj := range s {
		if inj.At <= 0 || inj.At >= horizon {
			t.Fatalf("injection %d at %v outside horizon", i, inj.At)
		}
		if i > 0 && s[i].At < s[i-1].At {
			t.Fatal("schedule not sorted")
		}
		if inj.Component != "sim" && inj.Component != "ana" {
			t.Fatalf("bad component %q", inj.Component)
		}
	}
}

func TestExponentialTargetWeighting(t *testing.T) {
	// With sim 4x larger than ana, most failures should land on sim.
	s, _ := Exponential(1, time.Minute, 400, time.Hour, targets())
	simCount := 0
	for _, inj := range s {
		if inj.Component == "sim" {
			simCount++
			if inj.Rank < 0 || inj.Rank >= 256 {
				t.Fatalf("rank %d out of range", inj.Rank)
			}
		} else if inj.Rank < 0 || inj.Rank >= 64 {
			t.Fatalf("ana rank %d out of range", inj.Rank)
		}
	}
	frac := float64(simCount) / 400
	if frac < 0.7 || frac > 0.9 {
		t.Fatalf("sim got %.2f of failures, expected ~0.8", frac)
	}
}

func TestExponentialValidation(t *testing.T) {
	if _, err := Exponential(1, 0, 1, time.Hour, targets()); err == nil {
		t.Fatal("zero MTBF accepted")
	}
	if _, err := Exponential(1, time.Minute, 1, 0, targets()); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := Exponential(1, time.Minute, 1, time.Hour, nil); err == nil {
		t.Fatal("no targets accepted")
	}
	if _, err := Exponential(1, time.Minute, 1, time.Hour, []Target{{Component: "x", Ranks: 0}}); err == nil {
		t.Fatal("zero ranks accepted")
	}
}

func TestFixedSorts(t *testing.T) {
	s := Fixed(
		Injection{At: 3 * time.Minute, Component: "b"},
		Injection{At: time.Minute, Component: "a"},
	)
	if s[0].Component != "a" || s[1].Component != "b" {
		t.Fatalf("order = %v", s)
	}
}

func TestKindString(t *testing.T) {
	cases := []struct {
		kind Kind
		want string
	}{
		{RankFailStop, "rank-fail-stop"},
		{ServerCrash, "server-crash"},
		{NetDelay, "net-delay"},
		{NetDrop, "net-drop"},
		{ServerFailStop, "server-fail-stop"},
		{SupervisorKill, "supervisor-kill"},
		{TenantOverload, "tenant-overload"},
		{PFSTornWrite, "pfs-torn-write"},
		{PFSPartialWrite, "pfs-partial-write"},
		{PFSBitRot, "pfs-bit-rot"},
		{PFSENOSPC, "pfs-enospc"},
		{PFSSlowIO, "pfs-slow-io"},
		{Kind(99), "kind(99)"},
	}
	for _, c := range cases {
		if got := c.kind.String(); got != c.want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(c.kind), got, c.want)
		}
	}
}

func TestChaosEmitsServerFailStop(t *testing.T) {
	s, err := Chaos(5, 40, time.Hour, time.Minute, 4, ServerCrash, ServerFailStop)
	if err != nil {
		t.Fatal(err)
	}
	failStops := 0
	for _, inj := range s {
		switch inj.Kind {
		case ServerFailStop:
			failStops++
			if inj.Duration != 0 {
				t.Fatalf("fail-stop with recovery horizon %v", inj.Duration)
			}
		case ServerCrash:
			if inj.Duration <= 0 {
				t.Fatalf("server crash with non-positive duration %v", inj.Duration)
			}
		default:
			t.Fatalf("unexpected kind %v", inj.Kind)
		}
	}
	if failStops == 0 {
		t.Fatal("40 draws over 2 kinds produced no fail-stops")
	}
}

func TestChurnSchedule(t *testing.T) {
	kinds := []Kind{ServerFailStop, ServerCrash, PFSENOSPC, PFSTornWrite, TenantOverload}
	a, err := Churn(21, 80, 200, 4, 40*time.Millisecond, kinds...)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Churn(21, 80, 200, 4, 40*time.Millisecond, kinds...)
	if len(a) != 80 {
		t.Fatalf("schedule length %d", len(a))
	}
	counts := map[Kind]int{}
	for i, inj := range a {
		if inj != b[i] {
			t.Fatalf("same seed diverged at %d: %+v vs %+v", i, inj, b[i])
		}
		if i > 0 && inj.AtOp < a[i-1].AtOp {
			t.Fatalf("unsorted by op clock at %d", i)
		}
		if inj.AtOp < 0 || inj.AtOp >= 200 {
			t.Fatalf("op index %d outside horizon", inj.AtOp)
		}
		if inj.Server == 0 {
			t.Fatal("churn faulted the lock server (slot 0)")
		}
		if inj.Server < 1 || inj.Server >= 4 {
			t.Fatalf("server %d out of range", inj.Server)
		}
		counts[inj.Kind]++
		switch inj.Kind {
		case ServerCrash, TenantOverload:
			if inj.Duration < 20*time.Millisecond || inj.Duration >= 60*time.Millisecond {
				t.Fatalf("%v duration %v outside [mean/2, 3mean/2)", inj.Kind, inj.Duration)
			}
		case PFSTornWrite:
			if inj.Offset < -1 || inj.Offset > 255 {
				t.Fatalf("offset %d out of range", inj.Offset)
			}
		}
	}
	for _, k := range kinds {
		if counts[k] == 0 {
			t.Fatalf("80 draws produced no %v", k)
		}
	}
}

func TestChurnValidation(t *testing.T) {
	if _, err := Churn(1, 5, 0, 4, time.Millisecond); err == nil {
		t.Fatal("zero op horizon accepted")
	}
	if _, err := Churn(1, 5, 10, 1, time.Millisecond); err == nil {
		t.Fatal("single-server churn accepted (slot 0 must stay unfaulted)")
	}
	if _, err := Churn(1, 5, 10, 4, 0); err == nil {
		t.Fatal("zero mean fault accepted")
	}
	if _, err := Churn(1, 5, 10, 4, time.Millisecond, RankFailStop); err == nil {
		t.Fatal("rank fail-stop accepted in a churn schedule")
	}
	// Supervisor kills target one of the two supervisors a soak may kill.
	kills, err := Churn(1, 20, 10, 4, time.Millisecond, SupervisorKill)
	if err != nil {
		t.Fatal(err)
	}
	for _, inj := range kills {
		if inj.Kind != SupervisorKill || inj.Server < 0 || inj.Server > 1 {
			t.Fatalf("supervisor kill drew %+v", inj)
		}
	}
	// Default kinds: fail-stops and blackouts only.
	sched, err := Churn(3, 40, 100, 3, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, inj := range sched {
		if inj.Kind != ServerFailStop && inj.Kind != ServerCrash {
			t.Fatalf("default kinds drew %v", inj.Kind)
		}
	}
}
