package report

import "testing"

// FuzzParse: any document Parse accepts renders, alone and as a
// comparison, through BuildHTML without a panic. Seeds: the CI-recipe run
// document, a sweep document and a sparse document
// (testdata/fuzz/FuzzParse).
func FuzzParse(f *testing.F) {
	f.Add([]byte(`{"sweep": {"workers": 3, "spans": [{"worker": 7, "started_us": 1, "finished_us": 2}]}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := Parse(raw, "fuzz.json")
		if err != nil {
			return
		}
		BuildHTML([]*Doc{d})
		BuildHTML([]*Doc{d, d})
	})
}
