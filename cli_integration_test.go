package sqlbarber

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIRoundTrip builds the sqlbarber and replay binaries and drives the
// full user journey: generate a workload file, then replay it and verify
// every recorded cost still reproduces.
func TestCLIRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	build := func(name, pkg string) string {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
		return bin
	}
	gen := build("sqlbarber", "./cmd/sqlbarber")
	replay := build("replay", "./cmd/replay")

	workloadFile := filepath.Join(dir, "w.sql")
	cmd := exec.Command(gen,
		"-dataset", "tpch", "-sf", "0.1", "-seed", "7",
		"-queries", "30", "-intervals", "3", "-range", "600",
		"-out", workloadFile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("sqlbarber: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "wasserstein distance") {
		t.Fatalf("generation summary missing:\n%s", stderr.String())
	}
	data, err := os.ReadFile(workloadFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "-- template=") {
		t.Fatalf("workload file missing annotations:\n%.200s", data)
	}

	out, err := exec.Command(replay,
		"-dataset", "tpch", "-sf", "0.1", "-seed", "7",
		"-cost", "cardinality", "-in", workloadFile).CombinedOutput()
	if err != nil {
		t.Fatalf("replay: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "errors=0") || !strings.Contains(string(out), "cost drift > 1.0%: 0") {
		t.Fatalf("replay found drift:\n%s", out)
	}
}

// TestCLIJSONOutput checks the JSON manifest format end-to-end.
func TestCLIJSONOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "sqlbarber")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/sqlbarber").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin,
		"-dataset", "tpch", "-sf", "0.1", "-queries", "12", "-intervals", "3",
		"-range", "500", "-format", "json").Output()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{`"cost_kind": "cardinality"`, `"queries"`, `"wasserstein_distance"`} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("JSON output missing %s:\n%.300s", want, out)
		}
	}
}

// TestCLIRejectsBadFlags: an unknown -cost or -format value, or a numeric
// flag out of range, fails with exit 1 and a message naming the flag
// instead of panicking or silently running a degenerate workload.
func TestCLIRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "sqlbarber")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/sqlbarber").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"-cost", []string{"-cost", "bogus"}, `sqlbarber: unknown cost "bogus" (want cardinality, plancost, or rows)`},
		{"-format", []string{"-format", "bogus"}, `sqlbarber: unknown format "bogus" (want sql or json)`},
		{"-sf", []string{"-sf", "-1"}, `sqlbarber: -sf -1 must be finite and > 0`},
		{"-queries", []string{"-queries", "0"}, `sqlbarber: -queries 0 must be >= 1`},
		{"-intervals", []string{"-intervals", "0"}, `sqlbarber: -intervals 0 must be >= 1`},
		{"-range", []string{"-range", "-5"}, `sqlbarber: -range -5 must be finite and > 0`},
		// A range so small the redset weights underflow: the target check
		// shared with sqlbarberd rejects the all-zero counts.
		{"-dist", []string{"-range", "1e-310", "-dist", "redset"},
			`sqlbarber: redset target over [0, 1e-310] with 10 intervals: counts sum to 0, want 5`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, append([]string{"-sf", "0.01", "-queries", "5"}, c.args...)...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exitErr *exec.ExitError
			if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
				t.Fatalf("%v: want exit code 1, got %v\n%s", c.args, err, stderr.String())
			}
			if got := strings.TrimSpace(stderr.String()); got != c.want {
				t.Fatalf("%v: stderr %q, want %q", c.args, got, c.want)
			}
			if stdout.Len() != 0 {
				t.Fatalf("%v wrote a workload:\n%.200s", c.args, stdout.String())
			}
		})
	}
}

// TestCLIBarbervet builds the repo linter and checks both halves of its
// contract: the real tree passes clean (exit 0) and the badpkg fixture —
// which violates every rule — fails with a non-zero exit naming each code.
func TestCLIBarbervet(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "barbervet")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/barbervet").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	// The production tree must be clean.
	if out, err := exec.Command(bin, "./...").CombinedOutput(); err != nil {
		t.Fatalf("barbervet flags the real tree: %v\n%s", err, out)
	}

	// The known-bad fixture must fail with findings for every rule.
	fixture := filepath.Join("cmd", "barbervet", "testdata", "internal", "badpkg")
	out, err := exec.Command(bin, fixture).CombinedOutput()
	if err == nil {
		t.Fatalf("barbervet accepted the bad fixture:\n%s", out)
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("want exit code 1, got %v\n%s", err, out)
	}
	for _, code := range []string{"R001", "R002", "R003", "R004"} {
		if !strings.Contains(string(out), code) {
			t.Errorf("fixture output missing rule %s:\n%s", code, out)
		}
	}
}
