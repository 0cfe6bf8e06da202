package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"cawa/internal/config"
	"cawa/internal/core"
	"cawa/internal/gpu"
)

// fill sets every exported, encoded field reachable from v to a
// distinct non-zero value: negative ints, unsigned ints counting down
// from MaxUint64, strings, two-element slices and maps keyed {-1, 2, 10}.
// A field of a kind it does not know fails the test, so a new field
// cannot hide from TestDecodeEntryCoversResult.
func fill(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-int64(*n) * 1_000_003 % (1 << 31))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if v.OverflowUint(math.MaxUint64) {
			t.Fatalf("unsigned %s too narrow for the drift guard", v.Type())
		}
		v.SetUint(math.MaxUint64 - uint64(*n))
	case reflect.String:
		v.SetString(fmt.Sprintf("s %d|~", *n))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if f.IsExported() && f.Tag.Get("json") != "-" {
				fill(t, v.Field(i), n)
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fill(t, v.Index(i), n)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for _, k := range []int64{-1, 2, 10} {
			key := reflect.New(v.Type().Key()).Elem()
			key.SetInt(k)
			val := reflect.New(v.Type().Elem()).Elem()
			fill(t, val, n)
			v.SetMapIndex(key, val)
		}
	default:
		t.Fatalf("the drift guard does not know how to fill a %s", v.Type())
	}
}

// empty sets every slice and map reachable from v through structs to
// an empty, non-nil value.
func empty(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				empty(v.Field(i))
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 0, 0))
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
	}
}

// checkStrictEntry asserts that the entry storeJSON would write for r
// takes the strict path, decodes to what encoding/json decodes, and
// re-encodes to the same bytes.
func checkStrictEntry(t *testing.T, name string, r *Result) {
	t.Helper()
	const key = `bfs|lrr|scale=0.05|arch=config.Config{Name:"x"}`
	result, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(entry{Key: key, Result: r})
	if err != nil {
		t.Fatal(err)
	}
	got, encoded, ok := decodeEntry(doc, key)
	if !ok {
		t.Fatalf("%s: json.Marshal's entry took the fallback:\n%s", name, doc)
	}
	if !bytes.Equal(encoded, result) || cap(encoded) != len(encoded) {
		t.Errorf("%s: encoded bytes are not the result's own, capacity clipped", name)
	}
	var e entry
	if err := json.Unmarshal(doc, &e); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, e.Result) {
		t.Errorf("%s: strict decode differs from encoding/json:\n got %+v\nwant %+v", name, got, e.Result)
	}
	if again, _ := json.Marshal(got); !bytes.Equal(again, result) {
		t.Errorf("%s: strict decode re-encodes differently", name)
	}
}

// TestDecodeEntryCoversResult is the drift guard between the strict
// entry decoder and the types it spells out: a Result with every field
// set, one with every slice and map nil, and one with them empty all
// take the strict path. A field added to Result, stats.Launch,
// stats.WarpRecord or gpu.LaunchSpan fails here rather than sending
// every disk hit down the slow path.
func TestDecodeEntryCoversResult(t *testing.T) {
	var full Result
	n := 0
	fill(t, reflect.ValueOf(&full).Elem(), &n)
	full.Agg.Warps[0].GID = math.MinInt
	full.Agg.Cycles = math.MinInt64
	full.Agg.MemTxns = math.MaxInt64
	checkStrictEntry(t, "full", &full)
	checkStrictEntry(t, "nil", &Result{})
	var e Result
	empty(reflect.ValueOf(&e).Elem())
	checkStrictEntry(t, "empty", &e)
}

// TestDecodeEntryRejectsNonCanonical: a document json.Marshal would
// not write, or one written for another key, is rejected by the strict
// decoder. Each case is either unparsable or parses to a result whose
// encoding differs from the file's, so serving it verbatim would be
// wrong.
func TestDecodeEntryRejectsNonCanonical(t *testing.T) {
	const key = "k|<&>"
	r := &Result{Workload: "bfs", Launches: 3, Spans: []gpu.LaunchSpan{}, WarpL1Hits: map[int32]uint64{2: 1, 10: 5}}
	doc, err := json.Marshal(entry{Key: key, Result: r})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := decodeEntry(doc, key); !ok {
		t.Fatalf("canonical entry rejected: %s", doc)
	}
	if _, _, ok := decodeEntry(doc, key+"x"); ok {
		t.Error("entry for another key accepted")
	}
	for name, edit := range map[string][2]string{
		"whitespace":        {`"Launches":3`, `"Launches": 3`},
		"leading zero":      {`"Launches":3`, `"Launches":03`},
		"minus zero":        {`"Launches":3`, `"Launches":-0`},
		"exponent":          {`"Launches":3`, `"Launches":3e0`},
		"int overflow":      {`"Launches":3`, `"Launches":9223372036854775808`},
		"uint overflow":     {`"10":5`, `"10":18446744073709551616`},
		"negative uint":     {`"10":5`, `"10":-5`},
		"numeric key order": {`{"10":5,"2":1}`, `{"2":1,"10":5}`},
		"duplicate key":     {`{"10":5,"2":1}`, `{"10":5,"10":5,"2":1}`},
		"key out of range":  {`"10":5`, `"2147483648":5`},
		"escaped string":    {`"bfs"`, `"\u0062fs"`},
		"field order":       {`"Workload":"bfs","System":""`, `"System":"","Workload":"bfs"`},
		"trailing space":    {`}}`, `}} `},
		"unknown field":     {`,"WarpL1Hits"`, `,"X":1,"WarpL1Hits"`},
		"unescaped key":     {`k|\u003c\u0026\u003e`, `k|<&>`},
	} {
		bad := strings.Replace(string(doc), edit[0], edit[1], 1)
		if bad == string(doc) {
			t.Fatalf("%s: %q not in %s", name, edit[0], doc)
		}
		if _, _, ok := decodeEntry([]byte(bad), key); ok {
			t.Errorf("%s: strict decoder accepted %s", name, bad)
		}
		var e entry
		if json.Unmarshal([]byte(bad), &e) == nil {
			if again, _ := json.Marshal(e); string(again) == bad {
				t.Errorf("%s: the case is canonical after all", name)
			}
		}
	}
	if _, _, ok := decodeEntry([]byte(`{"key":"k|\u003c\u0026\u003e","result":null}`), key); ok {
		t.Error("null result accepted")
	}
	// json.Marshal writes non-ASCII UTF-8 raw; the strict path takes
	// printable ASCII only, and such a file costs just the fallback.
	if _, _, ok := decodeEntry(bytes.Replace(doc, []byte(`"bfs"`), []byte(`"bfsé"`), 1), key); ok {
		t.Error("non-ASCII string accepted")
	}
	for i := 0; i < len(doc); i++ {
		if _, _, ok := decodeEntry(doc[:i], key); ok {
			t.Fatalf("entry torn at %d of %d bytes accepted", i, len(doc))
		}
	}
}

// FuzzDecodeEntry: whatever the strict decoder accepts is json.Marshal
// of what it decoded, byte for byte, and encoding/json decodes the same
// document to the same value — so serving an accepted file's bytes is
// serving the canonical encoding. Seeds: a real entry, the map-order
// pins, and the drift guard's nil and empty results.
func FuzzDecodeEntry(f *testing.F) {
	const key = "fuzz|key"
	real, err := Run(RunOptions{Workload: "bfs", Params: diskTestParams, System: core.Baseline(), Config: config.Small()})
	if err != nil {
		f.Fatal(err)
	}
	real.ReleaseGPU()
	var e Result
	empty(reflect.ValueOf(&e).Elem())
	for _, r := range []*Result{real, {}, &e, {WarpL1Accesses: map[int32]uint64{-1: 0, 2: 7, 10: math.MaxUint64}}} {
		doc, err := json.Marshal(entry{Key: key, Result: r})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Add([]byte(`{"key":"fuzz|key","result":{"Workload":"","System":"","Agg":{"Kernel":"","Cycles":0,"Instructions":0,"ThreadInstrs":0,"L1DAccesses":0,"L1DMisses":0,"L2Accesses":0,"L2Misses":0,"MemInstrs":0,"MemTxns":0,"Warps":null},"Launches":0,"Detailed":0,"Spans":null,"WarpL1Accesses":{"2":1,"10":1},"WarpL1Hits":null}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, encoded, ok := decodeEntry(data, key)
		if !ok {
			return
		}
		doc, err := json.Marshal(entry{Key: key, Result: got})
		if err != nil || !bytes.Equal(doc, data) {
			t.Fatalf("accepted %q, which re-encodes as %q (%v)", data, doc, err)
		}
		if again, _ := json.Marshal(got); !bytes.Equal(again, encoded) {
			t.Fatalf("encoded bytes %q are not the result's encoding %q", encoded, again)
		}
		var e entry
		if err := json.Unmarshal(data, &e); err != nil || e.Key != key || !reflect.DeepEqual(e.Result, got) {
			t.Fatalf("encoding/json reads %q differently: %v", data, err)
		}
	})
}

// TestRunJSONServesCanonicalEntriesVerbatim pins json.Marshal's map
// order in the strict path: an entry whose WarpL1Hits keys 2 and 10
// are stored "10" before "2" is canonical and is served as the file's
// own result bytes; the same entry with the keys in numeric order is
// not, and is served re-encoded.
func TestRunJSONServesCanonicalEntriesVerbatim(t *testing.T) {
	res := &Result{Workload: "bfs", System: "LRR", Launches: 1, Detailed: 1, WarpL1Hits: map[int32]uint64{2: 1, 10: 5}}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(want, []byte(`{"10":5,"2":1}`)) {
		t.Fatalf("json.Marshal wrote %s", want)
	}
	sysKey, _ := core.Baseline().Key()
	for _, c := range []struct {
		name     string
		result   []byte
		verbatim bool
	}{
		{"string order", want, true},
		{"numeric order", bytes.Replace(want, []byte(`{"10":5,"2":1}`), []byte(`{"2":1,"10":5}`), 1), false},
	} {
		d, err := OpenDiskCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession(config.Small(), diskTestParams)
		s.Disk = d
		s.SetRunFunc(func(ctx context.Context, opt RunOptions) (*Result, error) {
			t.Errorf("%s: a disk hit simulated", c.name)
			return res, nil
		})
		key := d.EntryKey("bfs", sysKey, s.Params, s.Config)
		k, _ := json.Marshal(key)
		doc := append(append(append(append([]byte(`{"key":`), k...), `,"result":`...), c.result...), '}')
		if err := os.WriteFile(d.path(key, resultExt), doc, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, encoded, ok := d.load(key); !ok || (encoded != nil) != c.verbatim {
			t.Fatalf("%s: load ok=%v, strict path=%v, want strict path=%v", c.name, ok, encoded != nil, c.verbatim)
		}
		got, err := s.RunJSON(context.Background(), "bfs", core.Baseline())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || bytes.Equal(got, c.result) != c.verbatim {
			t.Errorf("%s: served %s, want %s", c.name, got, want)
		}
		if s.DiskHits() != 1 {
			t.Errorf("%s: DiskHits = %d, want 1", c.name, s.DiskHits())
		}
	}
}
