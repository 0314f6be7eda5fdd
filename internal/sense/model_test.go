package sense

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fastfit/fastfit/internal/recfile"
)

func trainTestModel(t *testing.T) (*Model, []Record) {
	t.Helper()
	var recs []Record
	for i, app := range []string{"is", "ft", "mg"} {
		recs = append(recs, syntheticRecords(app, 40, int64(100+i))...)
	}
	m, err := Train(recs, TrainConfig{Seed: 11, Trees: 15, Depth: 6})
	if err != nil {
		t.Fatal(err)
	}
	return m, recs
}

func TestTrainRequiresTwoApps(t *testing.T) {
	_, err := Train(syntheticRecords("is", 20, 1), TrainConfig{Seed: 1})
	if err == nil || !strings.Contains(err.Error(), "at least 2 apps") {
		t.Fatalf("single-app training error = %v", err)
	}
	if _, err := Train(nil, TrainConfig{Seed: 1}); err == nil {
		t.Fatal("empty training set must fail")
	}
}

func TestTrainRejectsInvalidRecords(t *testing.T) {
	recs := syntheticRecords("is", 5, 2)
	recs = append(recs, syntheticRecords("ft", 5, 3)...)
	recs[3].Counts = recs[3].Counts[:1]
	if _, err := Train(recs, TrainConfig{Seed: 1}); err == nil || !strings.Contains(err.Error(), "record 3") {
		t.Fatalf("invalid-record training error = %v", err)
	}
}

func TestTrainLearnsSharedRule(t *testing.T) {
	m, _ := trainTestModel(t)
	if len(m.Apps) != 3 || m.Apps[0] != "ft" {
		t.Fatalf("Apps = %v", m.Apps)
	}
	// The labelling rule is shared across apps, so both the model and the
	// leave-one-app-out calibration should recover it.
	crash := Features{Ranks: 8, CollType: 1, Phase: 2, ErrHandling: true, NInv: 4, StackDepth: 5, NDiffStacks: 2}
	clean := crash
	clean.ErrHandling = false
	if got := m.Forest.Predict(crash.Vector()); got != 3 {
		t.Fatalf("crash-rule prediction = %d, want 3 (SEG_FAULT)", got)
	}
	if got := m.Forest.Predict(clean.Vector()); got != 0 {
		t.Fatalf("clean-rule prediction = %d, want 0 (SUCCESS)", got)
	}
	for _, class := range []int{0, 3} {
		if p, n := m.Cal.Precision(class); n == 0 || p < 0.8 {
			t.Fatalf("holdout precision for class %d = %.2f over %d", class, p, n)
		}
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	m, recs := trainTestModel(t)
	path := filepath.Join(t.TempDir(), "model.jsonl")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Apps) != 3 || got.Records != m.Records {
		t.Fatalf("metadata drifted: apps=%v records=%d", got.Apps, got.Records)
	}
	// Predictions must be byte-identical across the round trip.
	for i := range recs {
		before, _ := json.Marshal(m.Forest.PredictProba(recs[i].Vector()))
		after, _ := json.Marshal(got.Forest.PredictProba(recs[i].Vector()))
		if string(before) != string(after) {
			t.Fatalf("record %d: PredictProba drifted: %s -> %s", i, before, after)
		}
	}
	for c := 0; c < Classes; c++ {
		k1, n1 := m.Cal.Counts(c)
		k2, n2 := got.Cal.Counts(c)
		if k1 != k2 || n1 != n2 {
			t.Fatalf("calibration class %d drifted: %d/%d -> %d/%d", c, k1, n1, k2, n2)
		}
	}
}

// corruptModel saves a model, rewrites one of its record lines via edit,
// and returns the path of the mangled file.
func corruptModel(t *testing.T, m *Model, edit func(kind string, payload map[string]any) map[string]any) string {
	t.Helper()
	data, err := m.encode()
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		payload := line[18:] // skip "llllllll cccccccc "
		var v map[string]any
		if err := json.Unmarshal([]byte(payload), &v); err != nil {
			t.Fatal(err)
		}
		kind, _ := v["kind"].(string)
		if edited := edit(kind, v); edited != nil {
			re, err := json.Marshal(edited)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, encodeLineHelper(re)...)
		} else {
			out = append(out, line...)
			out = append(out, '\n')
		}
	}
	path := filepath.Join(t.TempDir(), "model.jsonl")
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func encodeLineHelper(payload []byte) []byte {
	line, _ := recfile.Encode(json.RawMessage(payload))
	return line
}

func TestLoadModelRefusesSchemaDrift(t *testing.T) {
	m, _ := trainTestModel(t)

	cases := []struct {
		name string
		edit func(kind string, v map[string]any) map[string]any
		want string
	}{
		{"future-version", func(kind string, v map[string]any) map[string]any {
			if kind == "sense-model" {
				v["version"] = modelVersion + 1
				return v
			}
			return nil
		}, "unsupported version"},
		{"classes-drift", func(kind string, v map[string]any) map[string]any {
			if kind == "sense-model" {
				v["classes"] = Classes + 1
				return v
			}
			return nil
		}, "outcome classes"},
		{"feature-rename", func(kind string, v map[string]any) map[string]any {
			if kind == "sense-model" {
				feats := append([]string{}, FeatureNames...)
				feats[0] = "Banks"
				v["features"] = feats
				return v
			}
			return nil
		}, `feature column 0 is "Banks"`},
		{"feature-count", func(kind string, v map[string]any) map[string]any {
			if kind == "sense-model" {
				v["features"] = []string{"just-one"}
				return v
			}
			return nil
		}, "1 feature columns"},
		{"calibration-impossible", func(kind string, v map[string]any) map[string]any {
			if kind == "calibration" {
				correct := make([]int, Classes)
				predicted := make([]int, Classes)
				correct[0], predicted[0] = 5, 2 // more correct than predicted
				v["correct"], v["predicted"] = correct, predicted
				return v
			}
			return nil
		}, "impossible calibration"},
		{"support-impossible-bounds", func(kind string, v map[string]any) map[string]any {
			if kind == "support" {
				lo := v["lo"].([]any)
				hi := v["hi"].([]any)
				lo[0], hi[0] = 9.0, 1.0 // min above max
				return v
			}
			return nil
		}, "impossible bounds"},
		{"support-empty-categorical", func(kind string, v map[string]any) map[string]any {
			if kind == "support" {
				v["cats"] = map[string]any{}
				return v
			}
			return nil
		}, "no values for categorical column"},
		{"support-wrong-width", func(kind string, v map[string]any) map[string]any {
			if kind == "support" {
				v["lo"] = []float64{1}
				return v
			}
			return nil
		}, "support envelope covers"},
	}
	for _, tc := range cases {
		path := corruptModel(t, m, tc.edit)
		_, err := LoadModel(path)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: LoadModel = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestLoadModelStructuralRefusals(t *testing.T) {
	m, _ := trainTestModel(t)
	data, err := m.encode()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, content []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	if _, err := LoadModel(write("empty", nil)); err == nil || !strings.Contains(err.Error(), "empty file") {
		t.Fatalf("empty model error = %v", err)
	}
	if _, err := LoadModel(write("torn", data[:len(data)-3])); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("torn model error = %v", err)
	}
	// Header only: missing forest and calibration.
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if _, err := LoadModel(write("headeronly", []byte(lines[0]+"\n"))); err == nil || !strings.Contains(err.Error(), "missing forest") {
		t.Fatalf("forest-less model error = %v", err)
	}
	if _, err := LoadModel(write("nocal", []byte(lines[0]+"\n"+lines[1]+"\n"))); err == nil || !strings.Contains(err.Error(), "missing calibration") {
		t.Fatalf("calibration-less model error = %v", err)
	}
	if _, err := LoadModel(write("nosupport", []byte(lines[0]+"\n"+lines[1]+"\n"+lines[2]+"\n"))); err == nil || !strings.Contains(err.Error(), "missing support") {
		t.Fatalf("support-less model error = %v", err)
	}
	// Interior corruption names the offset.
	corrupt := append([]byte{}, data...)
	corrupt[len(lines[0])+30] ^= 0xff
	if _, err := LoadModel(write("corrupt", corrupt)); err == nil || !strings.Contains(err.Error(), "at offset") {
		t.Fatalf("corrupt model error = %v", err)
	}
}

func TestAdvisorGateSemantics(t *testing.T) {
	m, recs := trainTestModel(t)

	// Gate at 1.0: nothing is ever served — a Wilson lower bound is
	// strictly below 1 for finite evidence.
	closed := NewAdvisor(m, AdvisorConfig{Gate: 1.0})
	for _, r := range recs {
		if _, ok := closed.Advise(r.Features); ok {
			t.Fatal("gate 1.0 served a prediction")
		}
	}
	st := closed.Stats()
	if st.Served != 0 || st.Fallback != len(recs) {
		t.Fatalf("gate 1.0 stats = %+v", st)
	}

	// Gate at 0: strong, well-calibrated predictions are served.
	open := NewAdvisor(m, AdvisorConfig{Gate: 0})
	served := 0
	for _, r := range recs {
		ad, ok := open.Advise(r.Features)
		if ad.Confidence >= 1 {
			t.Fatalf("confidence %v must stay below 1", ad.Confidence)
		}
		if ok {
			served++
			if ad.Outcome != r.Dominant() {
				// The rule is deterministic and the model learns it; the
				// minority-noise outcomes never dominate a record.
				t.Fatalf("served wrong outcome %d for %+v (want %d)", ad.Outcome, r.Features, r.Dominant())
			}
		}
	}
	if served == 0 {
		t.Fatal("gate 0 served nothing")
	}
}

// TestAdvisorRefusesOutOfSupport pins the training-envelope guard: a
// subspace whose categorical features take values the training set never
// contained, or whose ordinal features fall outside the observed ranges,
// is never served no matter how open the gate — the forest would be
// extrapolating — and the refusal survives a save/load round trip.
func TestAdvisorRefusesOutOfSupport(t *testing.T) {
	m, recs := trainTestModel(t)
	path := filepath.Join(t.TempDir(), "model.jsonl")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}

	inSupport := recs[0].Features
	ood := map[string]Features{}
	f := inSupport
	f.CollType = 7 // synthetic records only use collectives 0..3
	ood["unseen-collective"] = f
	f = inSupport
	f.Policy = 2 // all synthetic records inject under policy 0
	ood["unseen-policy"] = f
	f = inSupport
	f.Ranks = 4096 // far outside the observed rank range
	ood["ranks-out-of-range"] = f

	for _, model := range []*Model{m, loaded} {
		a := NewAdvisor(model, AdvisorConfig{Gate: 0})
		if _, ok := a.Advise(inSupport); !ok {
			t.Fatal("in-support training subspace refused at gate 0")
		}
		for name, q := range ood {
			ad, ok := a.Advise(q)
			if ok {
				t.Errorf("%s: out-of-support subspace was served", name)
			}
			if ad.Confidence != 0 {
				t.Errorf("%s: out-of-support confidence = %v, want 0", name, ad.Confidence)
			}
		}
	}
}

func TestAdvisorCacheAndStats(t *testing.T) {
	m, _ := trainTestModel(t)
	a := NewAdvisor(m, AdvisorConfig{Gate: 0.5})
	f := Features{App: "new-app", Ranks: 8, CollType: 1, Phase: 2, ErrHandling: true, NInv: 4, StackDepth: 5, NDiffStacks: 2}
	first, ok1 := a.Advise(f)
	// The app id is identity only: a different app probing the same
	// subspace hits the cache and gets the same advice.
	g := f
	g.App = "another-app"
	second, ok2 := a.Advise(g)
	if first != second || ok1 != ok2 {
		t.Fatalf("cache miss changed the advice: %+v/%v vs %+v/%v", first, ok1, second, ok2)
	}
	st := a.Stats()
	if st.CacheHits != 1 || st.Served+st.Fallback != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if a.Gate() != 0.5 {
		t.Fatalf("Gate() = %v", a.Gate())
	}
}
