package qav_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestOptionInventory lists every value a user of this module can set:
// each exported field of a struct named Config, *Config or Params, and
// each flag a command defines, in non-test code outside bench/. The
// list must equal testdata/options.txt, so a new knob (or a removed
// one) is a visible diff of that file rather than a silent addition.
func TestOptionInventory(t *testing.T) {
	got := optionInventory(t, ".")
	want := readInventory(t, filepath.Join("testdata", "options.txt"))
	fields, flags := 0, 0
	for _, o := range got {
		if strings.HasPrefix(o, "flag ") {
			flags++
		} else {
			fields++
		}
	}
	t.Logf("%d settable values: %d config fields, %d command flags", len(got), fields, flags)

	gotSet, wantSet := map[string]bool{}, map[string]bool{}
	for _, o := range got {
		gotSet[o] = true
	}
	for _, o := range want {
		wantSet[o] = true
	}
	var diff []string
	for _, o := range got {
		if !wantSet[o] {
			diff = append(diff, "+ "+o)
		}
	}
	for _, o := range want {
		if !gotSet[o] {
			diff = append(diff, "- "+o)
		}
	}
	if len(diff) > 0 {
		t.Fatalf("the options differ from testdata/options.txt (+ new, - gone); "+
			"edit the file to match and say why in the change:\n%s", strings.Join(diff, "\n"))
	}
}

// optionInventory parses every non-test Go file under root (bench/,
// testdata and hidden directories skipped) and returns the sorted
// inventory lines: "field <dir>.<Type>.<Field>" and "flag <dir> -<name>".
func optionInventory(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		sets := flagSets(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || !(strings.HasSuffix(n.Name.Name, "Config") || n.Name.Name == "Params") {
					return true
				}
				for _, fld := range st.Fields.List {
					for _, id := range fieldNames(fld) {
						if id.IsExported() {
							out = append(out, "field "+dir+"."+n.Name.Name+"."+id.Name)
						}
					}
				}
			case *ast.CallExpr:
				name, ok := flagName(n, sets)
				switch {
				case ok && name == "":
					t.Errorf("%s: a flag whose name is not a string literal cannot be inventoried", fset.Position(n.Pos()))
				case ok:
					out = append(out, "flag "+dir+" -"+name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// fieldNames returns a struct field's names; an embedded field is named
// by its type.
func fieldNames(f *ast.Field) []*ast.Ident {
	if len(f.Names) > 0 {
		return f.Names
	}
	typ := f.Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch typ := typ.(type) {
	case *ast.Ident:
		return []*ast.Ident{typ}
	case *ast.SelectorExpr:
		return []*ast.Ident{typ.Sel}
	}
	return nil
}

// flagSets returns the names f declares as a *flag.FlagSet: parameters,
// fields and variables of that type, and results of flag.NewFlagSet.
func flagSets(f *ast.File) map[string]bool {
	isFlagSet := func(e ast.Expr) bool {
		star, ok := e.(*ast.StarExpr)
		return ok && isFlagSel(star.X, "FlagSet")
	}
	sets := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			if isFlagSet(n.Type) {
				for _, id := range n.Names {
					sets[id.Name] = true
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil && isFlagSet(n.Type) {
				for _, id := range n.Names {
					sets[id.Name] = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if call, ok := rhs.(*ast.CallExpr); ok && isFlagSel(call.Fun, "NewFlagSet") && i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						sets[id.Name] = true
					}
				}
			}
		}
		return true
	})
	return sets
}

// isFlagSel reports whether e is flag.<name>.
func isFlagSel(e ast.Expr, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "flag"
}

// flagName reports whether call defines a flag, on the flag package, on
// flag.CommandLine or on one of the file's FlagSets, and the name it
// defines: the first argument of String/Int/..., the second of the *Var
// forms, or "" when that argument is not a string literal.
func flagName(call *ast.CallExpr, sets map[string]bool) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch x := sel.X.(type) {
	case *ast.Ident:
		if x.Name != "flag" && !sets[x.Name] {
			return "", false
		}
	default:
		if !isFlagSel(x, "CommandLine") {
			return "", false
		}
	}
	arg := 0
	switch sel.Sel.Name {
	case "Bool", "Duration", "Float64", "Int", "Int64", "String", "Uint", "Uint64", "Func", "BoolFunc":
	case "BoolVar", "DurationVar", "Float64Var", "IntVar", "Int64Var", "StringVar", "UintVar", "Uint64Var", "Var", "TextVar":
		arg = 1
	default:
		return "", false
	}
	if len(call.Args) <= arg {
		return "", true
	}
	lit, ok := call.Args[arg].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", true
	}
	name, _ := strconv.Unquote(lit.Value)
	return name, true
}

// readInventory reads the expected inventory: one line per option,
// blank lines and # comments ignored.
func readInventory(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
