package main

import (
	"bytes"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestEveryAdvertisedExperimentDispatches: a name -exp all runs, or
// that the flag's help text lists, must reach an experiment, and every
// experiment must be listed.
func TestEveryAdvertisedExperimentDispatches(t *testing.T) {
	_, list, _ := strings.Cut(expUsage, ": ")
	advertised := strings.Split(list, ", ")
	for _, name := range append(advertised, allExps...) {
		if _, ok := experiments[name]; !ok && name != "all" {
			t.Errorf("%q is advertised but run would answer unknown experiment", name)
		}
	}
	for name := range experiments {
		if !slices.Contains(advertised, name) {
			t.Errorf("%q runs but the -exp help text does not list it: %q", name, expUsage)
		}
	}
}

// TestRemovedExperimentsAreErrors: the second performance harness is
// gone (bench/ and the named tests report those numbers), and asking
// for it must say so rather than run nothing.
func TestRemovedExperimentsAreErrors(t *testing.T) {
	for _, name := range []string{"transport", "overload", "tier", "failstop", "logrepl", ""} {
		err := run(name, params{out: new(bytes.Buffer)})
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("run(%q) = %v, want unknown experiment", name, err)
		}
	}
}

func TestTablesPrintTheirTitles(t *testing.T) {
	for name, title := range map[string]string{
		"table1": "Table I: user interface",
		"table2": "Table II: experimental setup",
		"table3": "Table III: scalability test configurations",
	} {
		var out bytes.Buffer
		if err := run(name, params{out: &out}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out.String(), title) {
			t.Errorf("%s printed no %q:\n%s", name, title, out.String())
		}
	}
}

// TestMotivationVerdicts runs the paper's Fig. 2 scenario live: only
// the scheme that checkpoints individually without logging may corrupt
// a read, and it must.
func TestMotivationVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four live workflows with failures")
	}
	var out bytes.Buffer
	if err := run("motivation", params{out: &out}); err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"Coordinated", "Uncoordinated", "Individual", "Hybrid"} {
		row := regexp.MustCompile(`(?mi)^` + scheme + `\s.*$`).FindString(out.String())
		if row == "" {
			t.Fatalf("no %s row:\n%s", scheme, out.String())
		}
		want := "CONSISTENT"
		if scheme == "Individual" {
			want = "CORRUPTED"
		}
		if !strings.Contains(row, want) {
			t.Errorf("%s is not reported %s: %s", scheme, want, row)
		}
	}
}
