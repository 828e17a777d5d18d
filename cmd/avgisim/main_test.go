package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"avgi/internal/cliflags"
)

// runCaptured sets the given flags for one run(workload) and returns what
// it printed on stdout with its error.
func runCaptured(t *testing.T, workload string, flags map[string]string) (string, error) {
	t.Helper()
	for name, v := range flags {
		old := flag.Lookup(name).Value.String()
		if err := flag.Set(name, v); err != nil {
			t.Fatal(err)
		}
		defer flag.Set(name, old)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	runErr := run(workload)
	os.Stdout = stdout
	w.Close()
	return <-printed, runErr
}

func TestGoldenRunVerified(t *testing.T) {
	for _, machine := range []string{"a72", "a15"} {
		out, err := runCaptured(t, "sha", map[string]string{"machine": machine})
		if err != nil {
			t.Fatalf("%s: %v", machine, err)
		}
		if !strings.Contains(out, "verified  output matches the reference model") {
			t.Errorf("%s: golden run not verified:\n%s", machine, out)
		}
	}
}

func TestInject(t *testing.T) {
	out, err := runCaptured(t, "sha", map[string]string{"inject": "RF:100:5000"})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"fault ", "IMM ", "effect ", "manifest "} {
		if !strings.Contains(out, "\n"+line) {
			t.Errorf("no %q line in:\n%s", line, out)
		}
	}
}

// A bad -inject is the user's typo: an error naming it, never a panic out
// of the campaign. There is no core-prefixed form of a structure name, and
// no injection cycle outside the golden run: a flip at cycle 0 or past the
// halt lands in no machine state the program executes.
func TestInjectRejected(t *testing.T) {
	for inject, want := range map[string]string{
		"c1/RF:100:5000":  "unknown structure",
		"NOPE:100:5000":   "unknown structure",
		"RF:100":          "want STRUCTURE:BIT:CYCLE",
		"RF:100:5000:1":   "want STRUCTURE:BIT:CYCLE",
		"RF:x:5000":       "bad -inject numbers",
		"RF:100:-1":       "bad -inject numbers",
		"RF:6144:5000":    "RF has 6144 bits",
		"RF:100:0":        "spans cycles [1, ",
		"RF:100:99999999": "spans cycles [1, ",
	} {
		_, err := runCaptured(t, "sha", map[string]string{"inject": inject})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-inject %q: err = %v, want one containing %q", inject, err, want)
		}
	}
}

// TestFlagsMatchREADME checks README.md's "avgisim adds ...: N flags in
// all" sentence against the flags this binary registers beyond the shared
// cliflags set, so a flag added or dropped here is a visible README diff.
func TestFlagsMatchREADME(t *testing.T) {
	shared := flag.NewFlagSet("shared", flag.ContinueOnError)
	cliflags.Register(shared)
	var own []string
	total := 0
	flag.VisitAll(func(f *flag.Flag) { // sorted by name
		if strings.HasPrefix(f.Name, "test.") {
			return
		}
		total++
		if shared.Lookup(f.Name) == nil {
			own = append(own, f.Name)
		}
	})
	if want := "disasm inject machine s stats trace"; strings.Join(own, " ") != want {
		t.Errorf("avgisim's own flags: got %q, want %q", strings.Join(own, " "), want)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("(?s)`avgisim` adds (.*?): (\\d+) flags in all").FindSubmatch(readme)
	if m == nil {
		t.Fatal("README.md has no \"`avgisim` adds ...: N flags in all\" sentence")
	}
	documented := map[string]bool{}
	for _, name := range regexp.MustCompile("`-([a-z0-9-]+)`").FindAllSubmatch(m[1], -1) {
		documented[string(name[1])] = true
	}
	for _, name := range own {
		if !documented[name] {
			t.Errorf("README does not list avgisim's -%s", name)
		}
		delete(documented, name)
	}
	for name := range documented {
		t.Errorf("README lists -%s, which avgisim does not have", name)
	}
	if got := fmt.Sprint(total); string(m[2]) != got {
		t.Errorf("README says %s flags in all, avgisim registers %s", m[2], got)
	}
}
