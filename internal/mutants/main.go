// Command mutants runs the committed mutant table, mutants.txt. A row is one
// edit to one file and the guard that must catch it: a test pattern in a
// package, which must then fail, or a hamlint analyzer, which must then
// report. Each edit reaches the go command as an -overlay written under
// os.TempDir(), so the tree is never touched. It prints killed or SURVIVED
// per row and a score per guard package, and exits 1 if a row survived or
// could not be applied or built. Run it from the module root:
//
//	go run ./internal/mutants            # every row (make mutants)
//	go run ./internal/mutants -run ID    # the rows whose id matches a regexp
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// table is where the rows live, from the module root.
const table = "internal/mutants/mutants.txt"

// A row is one mutant: replace old, which occurs exactly once in file, by new,
// and expect the guard to catch it.
type row struct {
	id, from, file, old, new string
	static                   string // analyzer that must report, or ""
	pkg, tests               string // else: `go test -run tests pkg` must fail
}

func (r row) guard() string {
	if r.static != "" {
		return "hamlint reports [" + r.static + "]"
	}
	return r.pkg + " -run " + r.tests
}

// parse reads the table: a row per line, its fields separated by blanks,
// old and new as Go-quoted strings. '#' starts a comment line.
func parse(text string) ([]row, error) {
	var rows []row
	for i, line := range strings.Split(text, "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		var f []string
		for line != "" {
			tok := line
			if line[0] == '"' {
				q, err := strconv.QuotedPrefix(line)
				if err != nil {
					return nil, fmt.Errorf("line %d: %v", i+1, err)
				}
				tok, _ = strconv.Unquote(q)
				line = line[len(q):]
			} else if j := strings.IndexAny(line, " \t"); j >= 0 {
				tok, line = line[:j], line[j:]
			} else {
				line = ""
			}
			f = append(f, tok)
			line = strings.TrimLeft(line, " \t")
		}
		r := row{}
		switch {
		case len(f) == 6 && strings.HasPrefix(f[5], "static:"):
			r.static = strings.TrimPrefix(f[5], "static:")
		case len(f) == 7:
			r.pkg, r.tests = f[5], f[6]
		default:
			return nil, fmt.Errorf("line %d: want id, from, file, old, new and a guard (static:NAME, or a package and a test pattern); got %d fields", i+1, len(f))
		}
		r.id, r.from, r.file, r.old, r.new = f[0], f[1], f[2], f[3], f[4]
		rows = append(rows, r)
	}
	return rows, nil
}

// mutate returns the content of r's file with r applied. It declares
// allocSink in the file too: a mutant that adds an allocation stores it
// there, so that the allocation escapes to the heap.
func (r row) mutate(root string) ([]byte, error) {
	src, err := os.ReadFile(filepath.Join(root, r.file))
	if err != nil {
		return nil, err
	}
	if n := bytes.Count(src, []byte(r.old)); n != 1 {
		return nil, fmt.Errorf("%s: old snippet occurs %d times in %s, want once", r.id, n, r.file)
	}
	src = bytes.Replace(src, []byte(r.old), []byte(r.new), 1)
	return append(src, "\nvar allocSink any\n"...), nil
}

// run applies r through an overlay in tmp and runs its guard: the test
// pattern, or every analyzer (tmp/hamlint), of which the named one must
// report. It reports whether the guard caught the mutant; an error means
// the row is broken.
func (r row) run(root, tmp string) (bool, error) {
	src, err := r.mutate(root)
	if err != nil {
		return false, err
	}
	orig, err := filepath.Abs(filepath.Join(root, r.file))
	if err != nil {
		return false, err
	}
	mutant := filepath.Join(tmp, r.id+".go")
	ov, _ := json.Marshal(map[string]any{"Replace": map[string]string{orig: mutant}})
	overlay := filepath.Join(tmp, r.id+".json")
	if err := os.WriteFile(mutant, src, 0o644); err != nil {
		return false, err
	}
	if err := os.WriteFile(overlay, ov, 0o644); err != nil {
		return false, err
	}
	var cmd *exec.Cmd
	if r.static != "" {
		cmd = exec.Command(filepath.Join(tmp, "hamlint"), "./...")
	} else {
		cmd = exec.Command("go", "test", "-count=1", "-timeout=2m", "-run", r.tests, r.pkg)
	}
	// The overlay goes by GOFLAGS, so that a go command the guard runs
	// itself (analysis.Load's go list) sees the mutant too.
	cmd.Env = append(os.Environ(), "GOFLAGS=-overlay="+overlay)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return false, nil
	case !errors.As(err, &exit):
		return false, err
	case r.static != "" && exit.ExitCode() == 1:
		return bytes.Contains(out, []byte("["+r.static+"]")), nil
	case r.static == "" && !bytes.Contains(out, []byte("[build failed]")) && !bytes.Contains(out, []byte("[setup failed]")):
		return true, nil
	}
	return false, fmt.Errorf("%s: the guard did not run:\n%s", r.id, out)
}

func main() {
	run := flag.String("run", "", "run only the rows whose id matches this regexp")
	flag.Parse()
	sel, err := regexp.Compile(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutants:", err)
		os.Exit(2)
	}
	text, err := os.ReadFile(table)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutants: run from the module root:", err)
		os.Exit(2)
	}
	rows, err := parse(string(text))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mutants: %s: %v\n", table, err)
		os.Exit(2)
	}
	tmp, err := os.MkdirTemp("", "mutants")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutants:", err)
		os.Exit(2)
	}
	defer os.RemoveAll(tmp)
	if out, err := exec.Command("go", "build", "-o", filepath.Join(tmp, "hamlint"), "./cmd/hamlint").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "mutants: building hamlint: %v\n%s", err, out)
		os.Exit(2)
	}
	type score struct{ killed, total int }
	var order []string
	scores := map[string]*score{}
	failed := false
	for _, r := range rows {
		if !sel.MatchString(r.id) {
			continue
		}
		killed, err := r.run(".", tmp)
		verdict := "killed  "
		switch {
		case err != nil:
			verdict, failed = "BROKEN  ", true
			fmt.Fprintln(os.Stderr, err)
		case !killed:
			verdict, failed = "SURVIVED", true
		}
		fmt.Printf("%s %-28s %s\n", verdict, r.id, r.guard())
		key := r.pkg
		if r.static != "" {
			key = "hamlint"
		}
		if scores[key] == nil {
			scores[key] = &score{}
			order = append(order, key)
		}
		scores[key].total++
		if killed {
			scores[key].killed++
		}
	}
	for _, k := range order {
		fmt.Printf("score %-34s %d/%d\n", k, scores[k].killed, scores[k].total)
	}
	if failed {
		os.Exit(1)
	}
}
