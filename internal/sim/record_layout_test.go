package sim

import (
	"errors"
	"fmt"
	"testing"

	"xpdl/internal/val"
	"xpdl/internal/vm"
)

// recordLayoutSrc reads two fields of an extern's record result. The
// vm reads a record of the declared layout by index; any other shape
// must take the by-name path.
const recordLayoutSrc = `
memory out: uint<32>[8] with basic, comb_read;
extern func mix(t: uint<32>) -> (lo: uint<32>, mid: uint<32>, hi: uint<32>);
pipe p(i: uint<32>)[out] {
    if (i < 7) { call p(i + 1); }
    r = mix(i);
    a = i[2:0];
    acquire(out[a], W);
    out[a] <- r.mid + r.lo;
    ---
    release(out[a]);
}
`

// mixShaped returns mix's record with the declared fields plus extra
// ones, minus the dropped ones.
func mixShaped(extra map[string]uint64, drop ...string) ExternFunc {
	return func(args []val.Value) V {
		i := args[0].Uint()
		f := map[string]val.Value{
			"lo":  val.New(i*3, 32),
			"mid": val.New(i*5+1, 32),
			"hi":  val.New(i^7, 32),
		}
		for k, v := range extra {
			f[k] = val.New(v, 32)
		}
		for _, k := range drop {
			delete(f, k)
		}
		return Record(f)
	}
}

// runRecordLayout runs recordLayoutSrc on one engine, returning out[]
// and the run's error.
func runRecordLayout(t *testing.T, engine string, mix ExternFunc) ([8]uint64, error) {
	t.Helper()
	m := build(t, recordLayoutSrc, Config{Engine: engine, Externs: map[string]ExternFunc{"mix": mix}})
	if err := m.Start("p", val.New(0, 32)); err != nil {
		t.Fatal(err)
	}
	_, err := m.Run(500)
	var out [8]uint64
	for a := range out {
		out[a] = m.MemPeek("out", uint64(a)).Uint()
	}
	return out, err
}

func TestRecordLayoutFallback(t *testing.T) {
	var want [8]uint64
	for i := range want {
		want[i] = uint64(i*5+1) + uint64(i*3)
	}
	for _, tc := range []struct {
		name  string
		extra map[string]uint64
	}{
		{"declared", nil},
		// "aaa" sorts first, shifting every declared field's index by one.
		{"extra field", map[string]uint64{"aaa": 0xdead}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, engine := range Engines() {
				out, err := runRecordLayout(t, engine, mixShaped(tc.extra))
				if err != nil {
					t.Fatalf("%s: %v", engine, err)
				}
				if out != want {
					t.Errorf("%s: out = %v, want %v", engine, out, want)
				}
			}
		})
	}
	t.Run("missing field", func(t *testing.T) {
		const want = `sim: record has no field "mid"`
		for _, engine := range Engines() {
			_, err := runRecordLayout(t, engine, mixShaped(nil, "mid"))
			var ie *InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("%s: got %v, want *InternalError", engine, err)
			}
			if got := fmt.Sprint(ie.Panic); got != want {
				t.Errorf("%s: panic %q, want %q", engine, got, want)
			}
		}
	})
}

// Records of one field set share a canonical name slice, which is what
// the vm's layout check compares.
func TestRecordLayoutCanonical(t *testing.T) {
	a := mixShaped(nil)([]val.Value{val.New(1, 32)})
	b := mixShaped(nil)([]val.Value{val.New(2, 32)})
	c := mixShaped(map[string]uint64{"aaa": 1})([]val.Value{val.New(1, 32)})
	if &a.Rec.Names[0] != &b.Rec.Names[0] {
		t.Error("two records of one field set have distinct layouts")
	}
	if &a.Rec.Names[0] == &c.Rec.Names[0] {
		t.Error("records of different field sets share a layout")
	}
	if l := vm.Layout([]string{"hi", "lo", "mid"}); &l[0] != &a.Rec.Names[0] {
		t.Error("vm.Layout does not return the records' layout")
	}
}
