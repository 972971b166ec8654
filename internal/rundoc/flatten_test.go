package rundoc_test

import (
	"bufio"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"

	"lazydram/internal/mc"
	"lazydram/internal/obs"
	"lazydram/internal/rundoc"
	"lazydram/internal/sim"
	"lazydram/internal/workloads"
)

// ciRecipeDoc simulates the document CI gates on:
// lazysim -app SCP -scheme dyn-both -seed 1 -audit -quality -census
// -digest-every 4096 -json.
func ciRecipeDoc(t *testing.T) []byte {
	t.Helper()
	kern, err := workloads.New("SCP")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := mc.ParseScheme("dyn-both", 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Obs = obs.Options{Latency: true, SampleEvery: 1024, AuditCapacity: 1 << 16,
		Quality: true, Census: true, DigestEvery: 4096}
	res, err := sim.Simulate(kern, cfg, sch, 1)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rundoc.Encode(rundoc.Build(&res.Run, res, 1, 0, 8))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// renames maps a metric name of the hand-written flattener lazycmp used
// before the schema flattener to its name now, the JSON path: the first
// matching rule applies, and a name no rule matches (the top-level scalars,
// sweep.*) is unchanged.
var renames = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`^energy\.ch(\d+)\.`), "energy_by_channel.$1."},
	{regexp.MustCompile(`^stage\.`), "telemetry.stages."},
	{regexp.MustCompile(`^audit\.(dms|ams)\.(.+)$`), "telemetry.audit.reasons.$1.$2.count"},
	{regexp.MustCompile(`^census\.stall\.`), "telemetry.census.stalls."},
	{regexp.MustCompile(`^census\.state\.`), "telemetry.census.residency."},
	{regexp.MustCompile(`^census\.ch(\d+)\.stall\.`), "telemetry.census.channels.$1.stall_cycles."},
	{regexp.MustCompile(`^census\.ch(\d+)\.`), "telemetry.census.channels.$1."},
	{regexp.MustCompile(`^(audit|quality|digest|census|fault)\.`), "telemetry.$1."},
	{regexp.MustCompile(`^run\.`), "runs."},
}

func renamed(old string) string {
	for _, r := range renames {
		if r.re.MatchString(old) {
			return r.re.ReplaceAllString(old, r.repl)
		}
	}
	return old
}

// TestGatedSetIsSuperset: every metric the hand-written flattener gated on
// the CI-recipe document (testdata/gated-names-before.txt, 234 names) is
// still gated under its new name.
func TestGatedSetIsSuperset(t *testing.T) {
	m, skipped, err := rundoc.Flatten(ciRecipeDoc(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("non-finite metrics in the CI-recipe document: %v", skipped)
	}
	f, err := os.Open("testdata/gated-names-before.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	before := 0
	for sc := bufio.NewScanner(f); sc.Scan(); before++ {
		if name := renamed(sc.Text()); !hasKey(m, name) {
			t.Errorf("%s (was %s) is no longer gated", name, sc.Text())
		}
	}
	if before != 234 {
		t.Fatalf("read %d names from before, want 234", before)
	}
	t.Logf("gated metrics on the CI-recipe document: %d before, %d now", before, len(m))
}

func hasKey(m map[string]float64, k string) bool {
	_, ok := m[k]
	return ok
}

// TestFlattenCommittedBaseline: the committed reference document must stay
// readable by the schema, or the drift report against it fails.
func TestFlattenCommittedBaseline(t *testing.T) {
	raw, err := os.ReadFile("../../results/BENCH_lazysim.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rundoc.Flatten(raw); err != nil {
		t.Fatal(err)
	}
}

// TestSchemaTags: every list reachable through a gated field names its
// elements by at least one gate:"key" field of string or integer kind, and
// every gate tag is one Flatten understands.
func TestSchemaTags(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Map {
			typ = typ.Elem()
		}
		if typ.Kind() == reflect.Slice {
			et := typ.Elem()
			for et.Kind() == reflect.Pointer {
				et = et.Elem()
			}
			keys := 0
			for i := 0; et.Kind() == reflect.Struct && i < et.NumField(); i++ {
				if sf := et.Field(i); sf.Tag.Get("gate") == "key" {
					keys++
					switch sf.Type.Kind() {
					case reflect.String, reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64:
					default:
						t.Errorf("%s: key field %s.%s has kind %s", path, et, sf.Name, sf.Type.Kind())
					}
				}
			}
			if keys == 0 {
				t.Errorf("%s: list of %s has no gate:\"key\" field", path, et)
			}
			typ = et
		}
		if typ.Kind() != reflect.Struct || seen[typ] {
			return
		}
		seen[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			sf := typ.Field(i)
			switch g := sf.Tag.Get("gate"); g {
			case "":
				check(path+"."+sf.Name, sf.Type)
			case "-", "key":
			default:
				t.Errorf("%s.%s: unknown gate tag %q", path, sf.Name, g)
			}
		}
	}
	check("Doc", reflect.TypeOf(rundoc.Doc{}))
	check("SweepDoc", reflect.TypeOf(rundoc.SweepDoc{}))
}

// TestFlattenRejects: a document the schema does not describe is an input
// error, never a partial gate.
func TestFlattenRejects(t *testing.T) {
	for name, doc := range map[string]string{
		"undeclared field":  `{"ipc": 1, "ipc_new": 2}`,
		"undeclared nested": `{"telemetry": {"audit": {"total": 1, "bogus": 2}}}`,
		"object for number": `{"ipc": {"x": 1}}`,
		"number for object": `{"telemetry": 3}`,
		"bad string number": `{"ipc": "fast"}`,
		"bool for number":   `{"reads": true}`,
		"list element key":  `{"energy_by_channel": [{"row_nj": 1}]}`,
		"duplicate key":     `{"energy_by_channel": [{"channel": 0}, {"channel": 0}]}`,
		"scalar element":    `{"runs": [3]}`,
		"not an object":     `[1, 2]`,
		"trailing data":     `{"ipc": 1} {"ipc": 2}`,
		"truncated":         `{"ipc": 1`,
	} {
		if m, _, err := rundoc.Flatten([]byte(doc)); err == nil {
			t.Errorf("%s: accepted %s as %v", name, doc, m)
		}
	}
}

// TestFlattenKeysByIdentity: list elements are named by their identity, so
// inserting an element does not rename the others, and an absent member
// stays absent instead of reading as zero.
func TestFlattenKeysByIdentity(t *testing.T) {
	a, _, err := rundoc.Flatten([]byte(`{"telemetry": {"census": {"stalls": [
		{"cause": "queued", "cycles": 5}, {"cause": "trcd", "cycles": 7}]}}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := rundoc.Flatten([]byte(`{"telemetry": {"census": {"stalls": [
		{"cause": "queued", "cycles": 5}, {"cause": "dms_hold", "cycles": 1},
		{"cause": "trcd", "cycles": 7}]}}, "ipc": null}`))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range a {
		if b[name] != want {
			t.Errorf("%s: %v after inserting an element, want %v", name, b[name], want)
		}
	}
	if len(b) != len(a)+1 || hasKey(b, "ipc") {
		t.Errorf("flattened %v", b)
	}
}

// FuzzFlatten: arbitrary bytes give an error or a map of finite values,
// never a panic. Seeds: the CI-recipe run document, a sweep document and a
// sparse document (testdata/fuzz/FuzzFlatten).
func FuzzFlatten(f *testing.F) {
	f.Add([]byte(`{"runs": [{"app": "jmein", "scheme": "Baseline", "ipc": "NaN"}]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, skipped, err := rundoc.Flatten(raw)
		if err != nil {
			return
		}
		for name, v := range m {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s = %v entered the gate", name, v)
			}
		}
		for _, name := range skipped {
			if hasKey(m, name) {
				t.Fatalf("skipped %q is also gated", name)
			}
		}
	})
}
