package main

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

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
