package figures

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// EXPERIMENTS.md quotes Tables 1 and 2 of the unjittered paper-scale
// sweep in its bold "measured" rows. Every cell, and the Kmax header
// above it, must be what RenderTables prints for the sweep, so the
// document cannot drift from the code.
func TestExperimentsTablesMatchSweep(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	cells, _, err := TablesSweep(nil, DefaultScale, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderTables(&buf, cells); err != nil {
		t.Fatal(err)
	}
	// Rows by "Table 1 T1" and so on, and headers by "Table 1".
	got, table := map[string][]string{}, ""
	for _, line := range strings.Split(buf.String(), "\n") {
		switch f := strings.Fields(line); {
		case strings.HasPrefix(line, "Table "):
			table = line[:len("Table 1")]
		case len(f) > 0 && strings.HasPrefix(f[0], "Kmax="):
			got[table] = f
		case len(f) > 0:
			got[table+" "+f[0]] = f[1:]
		}
	}
	want := map[string][]string{}
	table = ""
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "## ") {
			table = ""
			if strings.HasPrefix(line, "## Table ") {
				table = line[len("## "):len("## Table 1")]
			}
			continue
		}
		cols := strings.Split(strings.Trim(line, "| "), "|")
		for i := range cols {
			cols[i] = strings.Trim(strings.TrimSpace(cols[i]), "*")
		}
		switch {
		case table == "":
		case strings.HasPrefix(line, "| | Kmax="): // the empty first column is trimmed
			want[table] = cols
		case strings.HasPrefix(cols[0], "measured "):
			want[table+" "+strings.TrimPrefix(cols[0], "measured ")] = cols[1:]
		}
	}
	for _, key := range []string{"Table 1", "Table 1 T1", "Table 1 T2", "Table 2", "Table 2 T1", "Table 2 T2"} {
		if !reflect.DeepEqual(want[key], got[key]) {
			t.Errorf("%s: EXPERIMENTS.md has %q, the sweep renders %q", key, want[key], got[key])
		}
	}
}
