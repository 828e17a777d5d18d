package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestMain runs avgi itself when the test binary is executed under the name
// "avgi", so a test can drive the real binary end to end.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "avgi" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestLogJSONEveryStderrLine: with -log json every line avgi writes to
// stderr is a JSON object, the study's phase lines and the progress
// ticker's included.
func TestLogJSONEveryStderrLine(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-log", "json", "-progress", "-faults", "8",
		"-workloads", "sha", "-structures", "RF", "-mode", "hvf", "campaign")
	cmd.Args[0] = "avgi"
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = io.Discard, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("avgi: %v\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("%d stderr lines, want the two study phases and a progress line:\n%s", len(lines), stderr.String())
	}
	for _, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Errorf("stderr line is not a JSON object (%v): %s", err, line)
		}
	}
}

// TestExperimentNamesPinned pins the subcommand surface of avgi — the rows
// of the experiments table, in order, and which of them "all" runs — so
// adding, dropping or reordering one is a visible one-line diff in review.
// The README's experiment list must name exactly the same set.
func TestExperimentNamesPinned(t *testing.T) {
	var names, all []string
	for _, e := range experiments {
		names = append(names, e.name)
		if e.inAll {
			all = append(all, e.name)
		}
	}
	want := []string{
		"fig1", "fig3", "fig4", "fig5", "fig7", "fig8", "fig9", "table2", "fig10",
		"fig11", "motivation", "multibit", "fig12", "ertablation", "campaign",
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("experiments:\n got %q\nwant %q", names, want)
	}
	if !reflect.DeepEqual(all, want[:13]) {
		t.Errorf("\"all\" runs:\n got %q\nwant %q", all, want[:13])
	}
	help := experimentHelp()
	for _, name := range append(names, "all", "list") {
		if !strings.Contains(help, "\n  "+name+" ") && !strings.HasPrefix(help, "  "+name+" ") {
			t.Errorf("usage text has no line for %q", name)
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	list := regexp.MustCompile(`(?s)Experiments \(.avgi <name>.\):(.*?)\.\n`).FindSubmatch(readme)
	if list == nil {
		t.Fatal("README.md has no \"Experiments (`avgi <name>`): ...\" list")
	}
	var documented []string
	for _, m := range regexp.MustCompile("`([a-z0-9]+)`").FindAllSubmatch(list[1], -1) {
		documented = append(documented, string(m[1]))
	}
	if want := append(names, "all", "list"); !reflect.DeepEqual(documented, want) {
		t.Errorf("README experiment list:\n got %q\nwant %q", documented, want)
	}
}
