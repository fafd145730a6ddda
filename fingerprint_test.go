package tdx

import (
	"strings"
	"testing"
)

// TestFingerprintStable pins the fingerprint contract: recompiling the
// same text yields the same hash, whitespace and comments don't matter,
// and output-affecting options do.
func TestFingerprintStable(t *testing.T) {
	text := readTestdata(t, "employment.tdx")
	a := MustCompile(text)
	b := MustCompile(text)
	if a.Fingerprint() == "" || len(a.Fingerprint()) != 64 || !isHex(a.Fingerprint()) {
		t.Fatalf("fingerprint is not a hex sha256: %q", a.Fingerprint())
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("recompile changed fingerprint: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}

	// Reformatting — extra whitespace, extra comments — hashes equal.
	noisy := "# a new leading comment\n" + strings.ReplaceAll(text, "tgd sigma1:", "tgd   sigma1:  ")
	if MustCompile(noisy).Fingerprint() != a.Fingerprint() {
		t.Fatal("whitespace/comment noise changed the fingerprint")
	}

	// A semantic change (renamed dependency) changes the hash.
	renamed := strings.ReplaceAll(text, "tgd sigma1:", "tgd sigmaX:")
	if MustCompile(renamed).Fingerprint() == a.Fingerprint() {
		t.Fatal("renamed tgd kept the fingerprint")
	}

	// Output-affecting options are part of the identity...
	if MustCompile(text, WithNorm(NormNaive)).Fingerprint() == a.Fingerprint() {
		t.Fatal("WithNorm(NormNaive) kept the fingerprint")
	}
	if MustCompile(text, WithCoalesce(true)).Fingerprint() == a.Fingerprint() {
		t.Fatal("WithCoalesce kept the fingerprint")
	}
	// ...while byte-identical-output options are not.
	if MustCompile(text, WithRunInterner()).Fingerprint() != a.Fingerprint() {
		t.Fatal("WithRunInterner changed the fingerprint")
	}
}

// TestFingerprintTemporal covers the §7 modal path: temporal mappings
// fingerprint through the temporal canonical rendering.
func TestFingerprintTemporal(t *testing.T) {
	text := readTestdata(t, "phd.tdx")
	a := MustCompile(text)
	if !a.Info().Temporal {
		t.Fatal("phd.tdx should compile temporal")
	}
	if a.Fingerprint() != MustCompile(text).Fingerprint() {
		t.Fatal("temporal recompile changed fingerprint")
	}
	if a.Fingerprint() == MustCompile(readTestdata(t, "employment.tdx")).Fingerprint() {
		t.Fatal("distinct mappings share a fingerprint")
	}
	// Dropping a modal marker is a semantic change even though the atoms
	// are unchanged.
	demodal := strings.ReplaceAll(text, "always future Alumni", "Alumni")
	if MustCompile(demodal).Fingerprint() == a.Fingerprint() {
		t.Fatal("modal marker is not part of the fingerprint")
	}
}

// TestOptionsFingerprint pins the helper registries key on.
func TestOptionsFingerprint(t *testing.T) {
	if OptionsFingerprint() != OptionsFingerprint(WithRunInterner()) {
		t.Fatal("non-output options leaked into the fingerprint")
	}
	if OptionsFingerprint() == OptionsFingerprint(WithEgdStrategy(EgdStepwise)) {
		t.Fatal("egd strategy missing from the fingerprint")
	}
	if OptionsFingerprint() == OptionsFingerprint(WithNorm(NormNaive)) {
		t.Fatal("norm strategy missing from the fingerprint")
	}
}

func isHex(s string) bool {
	for _, r := range s {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}
