package serve

import (
	"strings"
	"testing"

	"acesim/internal/scenario"
)

func expand(t *testing.T, src string) []scenario.Unit {
	t.Helper()
	sc, err := scenario.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	units, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return units
}

func keysOf(t *testing.T, src string, traced bool) []string {
	t.Helper()
	units := expand(t, src)
	keys := make([]string, len(units))
	for i, u := range units {
		k, err := UnitKey(u, traced, "test-v")
		if err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
		keys[i] = k
	}
	return keys
}

// TestUnitKeyCanonicalization: two scenario files with identical
// semantics but different JSON key order and different topology
// spellings ("4x2x2" string vs the expanded {"dims": [...]} object)
// must produce the same unit hashes — the cache is addressed by what
// will be simulated, not by how the file spelled it.
func TestUnitKeyCanonicalization(t *testing.T) {
	const a = `{
	  "name": "spelled-compact",
	  "platform": {"toruses": ["4x2x2"], "presets": ["ACE"], "engine": "analytic"},
	  "jobs": [{"kind": "collective", "collective": "all-reduce", "payloads_mb": [1, 2]}]
	}`
	// Same semantics: keys reordered, topology as a dims object, payloads
	// in bytes, a different scenario name (names label jobs, not work).
	const b = `{
	  "jobs": [{"payload_bytes": [1048576, 2097152], "collective": "all-reduce", "kind": "collective"}],
	  "platform": {
	    "engine": "analytic",
	    "presets": ["ACE"],
	    "topologies": [{"dims": [{"size": 4, "wrap": true}, {"size": 2, "wrap": true}, {"size": 2, "wrap": true}]}]
	  },
	  "name": "spelled-expanded"
	}`
	ka, kb := keysOf(t, a, false), keysOf(t, b, false)
	if len(ka) != 2 || len(kb) != 2 {
		t.Fatalf("expanded %d and %d units, want 2 and 2", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Errorf("unit %d: equivalent spellings hash differently:\n  %s\n  %s", i, ka[i], kb[i])
		}
	}
	if ka[0] == ka[1] {
		t.Error("different payloads share a hash")
	}
}

// TestUnitKeyDiscriminates: any semantic difference — engine, tracing,
// power accounting, preset, code version — must change the hash.
func TestUnitKeyDiscriminates(t *testing.T) {
	doc := func(engine, preset, powerBlock string) string {
		return `{
		  "name": "probe",
		  "platform": {"toruses": ["4x2x2"], "presets": ["` + preset + `"], "engine": "` + engine + `"},
		  "jobs": [{"kind": "collective", "payloads_mb": [1]}]` + powerBlock + `
		}`
	}
	base := keysOf(t, doc("analytic", "ACE", ""), false)[0]
	seen := map[string]string{"base": base}
	for name, key := range map[string]string{
		"engine": keysOf(t, doc("des", "ACE", ""), false)[0],
		"preset": keysOf(t, doc("analytic", "Ideal", ""), false)[0],
		"traced": keysOf(t, doc("analytic", "ACE", ""), true)[0],
		"power":  keysOf(t, doc("analytic", "ACE", `, "power": {"enabled": true}`), false)[0],
	} {
		if key == base {
			t.Errorf("%s difference did not change the hash", name)
		}
		if prev, dup := seenValue(seen, key); dup {
			t.Errorf("%s and %s collide", name, prev)
		}
		seen[name] = key
	}
	units := expand(t, doc("analytic", "ACE", ""))
	vA, err := UnitKey(units[0], false, "vA")
	if err != nil {
		t.Fatal(err)
	}
	vB, err := UnitKey(units[0], false, "vB")
	if err != nil {
		t.Fatal(err)
	}
	if vA == vB {
		t.Error("code-version stamp does not reach the hash")
	}
}

func seenValue(m map[string]string, v string) (string, bool) {
	for k, have := range m {
		if have == v {
			return k, true
		}
	}
	return "", false
}

// TestUnitKeyMicrobench: microbench units run the paper's fixed
// Section III platform, so the platform grid must not leak into their
// hashes — but kernel shape and payload must.
func TestUnitKeyMicrobench(t *testing.T) {
	const onACE = `{
	  "name": "mb",
	  "platform": {"toruses": ["4x2x2"], "presets": ["ACE"]},
	  "jobs": [{"kind": "microbench", "kernels": [{"gemm_n": 512}], "payloads_mb": [1]}]
	}`
	const onIdeal = `{
	  "name": "mb",
	  "platform": {"toruses": ["4x4x2"], "presets": ["Ideal"]},
	  "jobs": [{"kind": "microbench", "kernels": [{"gemm_n": 512}], "payloads_mb": [1]}]
	}`
	const otherKernel = `{
	  "name": "mb",
	  "platform": {"toruses": ["4x2x2"], "presets": ["ACE"]},
	  "jobs": [{"kind": "microbench", "kernels": [{"gemm_n": 1000}], "payloads_mb": [1]}]
	}`
	a, b, c := keysOf(t, onACE, false)[0], keysOf(t, onIdeal, false)[0], keysOf(t, otherKernel, false)[0]
	if a != b {
		t.Error("platform grid leaked into a microbench hash")
	}
	if a == c {
		t.Error("kernel shape missing from the microbench hash")
	}
}

// TestUnitKeyPinned pins literal keys of an override point and of a
// point without overrides. Unset override fields are omitted from the
// key, so adding a field to scenario.Overrides leaves every existing
// unit's cache key byte-identical; a set field must change it.
func TestUnitKeyPinned(t *testing.T) {
	doc := func(overrides string) string {
		return `{
		  "name": "pinned",
		  "platform": {"toruses": ["4x2x2"], "presets": ["ACE"]` + overrides + `},
		  "jobs": [{"kind": "collective", "payloads_mb": [1]}]
		}`
	}
	pinned := map[string]string{
		`, "overrides": [{"comm_mem_gbps": 128, "comm_sms": 80}]`: "63b5a2c4436839938a8e0498e11f324f5b08701b461b0f79beb14338ba9d8351",
		"": "15412883365d597e8f7661d2bf40fe8da19a7429a51d0e3bbf67096e52f40d0a",
	}
	for overrides, want := range pinned {
		if got := keysOf(t, doc(overrides), false)[0]; got != want {
			t.Errorf("key of %q = %s, want %s", overrides, got, want)
		}
	}
	for _, point := range []string{`{"fifo_sched": false}`, `{"link_efficiency": 1}`} {
		if keysOf(t, doc(`, "overrides": [`+point+`]`), false)[0] == keysOf(t, doc(""), false)[0] {
			t.Errorf("override point %s does not change the key", point)
		}
	}
}
