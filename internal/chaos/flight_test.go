package chaos

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"linkguardian/internal/obs"
	"linkguardian/internal/results"
)

// A deliberately broken protocol (tail-loss detection ablated under a tail
// blackout) must leave a complete flight-recorder artifact: the violation
// reason, the trace tail in both formats, a parseable metrics snapshot, and
// a per-rule trace snapshot that contains the packet sequence the liveness
// invariant names. This is the regression proof that a soak failure is
// debuggable from disk alone.
func TestFlightRecorderArtifactOnFailure(t *testing.T) {
	dir := t.TempDir()
	sc := tailBlackout(5)
	sc.DisableTailLoss = true
	r := RunScenario(sc, RunOpts{ArtifactDir: dir, Index: 3, KeepTrace: true})
	if !r.Failed() {
		t.Fatalf("ablated scenario did not fail:\n%v", r)
	}
	if r.Artifact == "" {
		t.Fatal("failed run with ArtifactDir set left no artifact path")
	}
	if filepath.Dir(r.Artifact) != dir {
		t.Fatalf("artifact %q not under %q", r.Artifact, dir)
	}
	if base := filepath.Base(r.Artifact); !strings.Contains(base, "0003") || !strings.Contains(base, "seed5") {
		t.Fatalf("artifact dir %q not keyed by index and seed", base)
	}

	for _, f := range []string{"REASON.txt", "trace.jsonl", "trace.chrome.json", "metrics.json"} {
		if _, err := os.Stat(filepath.Join(r.Artifact, f)); err != nil {
			t.Fatalf("artifact missing %s: %v", f, err)
		}
	}

	reason, err := os.ReadFile(filepath.Join(r.Artifact, "REASON.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(reason), "violation."+RuleLiveness) {
		t.Fatalf("REASON.txt does not record the liveness violation:\n%s", reason)
	}

	mb, err := os.ReadFile(filepath.Join(r.Artifact, "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(mb, &snap); err != nil {
		t.Fatalf("metrics.json does not parse: %v", err)
	}
	if snap.Counter("lg.protected") == 0 {
		t.Fatalf("metrics.json has no protected-packet count: %+v", snap.Counters[:3])
	}

	// The liveness detail names undelivered seqNos ("e.g. seqs [era:n ...]");
	// the trace snapshotted at the violation must contain those very packets.
	var detail string
	for _, v := range r.Violations {
		if v.Rule == RuleLiveness {
			detail = v.Detail
		}
	}
	if detail == "" {
		t.Fatalf("no liveness violation in:\n%v", r)
	}
	seqs := regexp.MustCompile(`\d+:\d+`).FindAllString(detail, -1)
	if len(seqs) == 0 {
		t.Fatalf("liveness detail names no seqNos: %q", detail)
	}
	if _, err := os.Stat(filepath.Join(r.Artifact, "trace-"+RuleLiveness+".jsonl")); err != nil {
		t.Fatalf("no per-rule trace snapshot: %v", err)
	}
	vt, err := os.ReadFile(filepath.Join(r.Artifact, "trace-"+RuleLiveness+"-data.jsonl"))
	if err != nil {
		t.Fatalf("no per-rule data-trace snapshot: %v", err)
	}
	found := false
	for _, s := range seqs {
		if strings.Contains(string(vt), `"seq":"`+s+`"`) {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("violation trace identifies none of the failing seqs %v", seqs)
	}
}

// A passing run must not write artifacts, and the trace/metrics ride on the
// report only when asked for.
func TestNoArtifactOnPass(t *testing.T) {
	dir := t.TempDir()
	sc := tailBlackout(5) // mechanism intact: recovers cleanly
	r := RunScenario(sc, RunOpts{ArtifactDir: dir, Index: 0, KeepTrace: true})
	if r.Failed() {
		t.Fatalf("intact scenario failed:\n%v", r)
	}
	if r.Artifact != "" {
		t.Fatalf("passing run produced artifact %q", r.Artifact)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("artifact root not empty after a passing run: %v", entries)
	}
	if len(r.Trace) == 0 {
		t.Fatal("KeepTrace did not populate Report.Trace")
	}
	if r.Metrics.Counter("lg.protected") == 0 {
		t.Fatal("Report.Metrics not populated")
	}

	r2 := RunScenario(sc, RunOpts{Index: -1})
	if len(r2.Trace) != 0 {
		t.Fatal("plain RunScenario must not retain the trace ring")
	}
}

// The artifact path must never leak into the report text — the soak compares
// report strings byte-for-byte across worker counts, and temp dirs differ.
func TestArtifactExcludedFromReportString(t *testing.T) {
	dir := t.TempDir()
	sc := tailBlackout(5)
	sc.DisableTailLoss = true
	with := RunScenario(sc, RunOpts{ArtifactDir: dir, Index: -1})
	without := RunScenario(sc, RunOpts{Index: -1})
	if with.Artifact == "" {
		t.Fatal("expected an artifact")
	}
	if with.String() != without.String() {
		t.Fatalf("report text depends on artifact wiring:\n%s\nvs\n%s", with, without)
	}
}

// With a results store attached as the artifact sink, a failing scenario
// must register its flight-recorder files as content-addressed blobs under
// one run keyed scenario-index-seed — no directory dump — and the report's
// locator must resolve back to readable bytes through the store.
func TestFlightRecorderSink(t *testing.T) {
	dir := t.TempDir()
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc := tailBlackout(5)
	sc.DisableTailLoss = true
	r := RunScenario(sc, RunOpts{Sink: store, Index: 3, KeepTrace: true})
	if !r.Failed() {
		t.Fatalf("ablated scenario did not fail:\n%v", r)
	}
	const prefix = "results:"
	if !strings.HasPrefix(r.Artifact, prefix) {
		t.Fatalf("artifact locator %q, want %s<id>", r.Artifact, prefix)
	}
	id := strings.TrimPrefix(r.Artifact, prefix)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := results.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	run, err := b.Get(id)
	if err != nil {
		t.Fatalf("locator %s does not resolve: %v", r.Artifact, err)
	}
	if run.Kind != "artifact" {
		t.Fatalf("run kind %q, want artifact", run.Kind)
	}
	if !strings.Contains(run.Name, "0003") || !strings.Contains(run.Name, "seed5") {
		t.Fatalf("run name %q not keyed by index and seed", run.Name)
	}
	if run.Config["scenario"] != sc.Name || run.Config["seed"] != "5" {
		t.Fatalf("recorder metadata lost: %v", run.Config)
	}

	want := map[string]bool{
		"REASON.txt": false, "trace.jsonl": false,
		"trace.chrome.json": false, "metrics.json": false,
		"trace-" + RuleLiveness + ".jsonl":      false,
		"trace-" + RuleLiveness + "-data.jsonl": false,
	}
	for _, ref := range run.Blobs {
		data, err := b.GetBlob(ref.Addr)
		if err != nil {
			t.Fatalf("blob %s: %v", ref.Name, err)
		}
		if int64(len(data)) != ref.Size || ref.Size == 0 {
			t.Fatalf("blob %s: %d bytes on disk, ref says %d", ref.Name, len(data), ref.Size)
		}
		if _, known := want[ref.Name]; known {
			want[ref.Name] = true
		}
		if ref.Name == "REASON.txt" && !strings.Contains(string(data), "violation."+RuleLiveness) {
			t.Fatalf("REASON blob does not record the liveness violation:\n%s", data)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("artifact run missing blob %s (have %d blobs)", name, len(run.Blobs))
		}
	}

	// Deterministic failures collapse: a second identical run re-registers
	// to the same locator and adds nothing.
	store2, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := RunScenario(sc, RunOpts{Sink: store2, Index: 3, KeepTrace: true})
	if err := store2.Close(); err != nil {
		t.Fatal(err)
	}
	if r2.Artifact != r.Artifact {
		t.Fatalf("identical failure produced a new locator: %s vs %s", r2.Artifact, r.Artifact)
	}
}
