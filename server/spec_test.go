package server

import (
	"regexp"
	"strings"
	"testing"
)

// modelNamePattern is the pattern validName's hand-written check stands
// in for; the tests below hold the two to the same verdict.
var modelNamePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// TestValidName: the name check accepts and refuses exactly what
// modelNamePattern does, at the length bounds, at every character class
// edge and on non-ASCII and invalid UTF-8 input.
func TestValidName(t *testing.T) {
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"", false},
		{"a", true},
		{"Z", true},
		{"0", true},
		{"9model", true},
		{"model-1.v2_final", true},
		{strings.Repeat("a", 64), true},
		{strings.Repeat("a", 65), false},
		{"a" + strings.Repeat(".", 63), true},
		{".hidden", false},
		{"-flag", false},
		{"_x", false},
		{"a/b", false},
		{"a b", false},
		{"a\n", false},
		{"a\x00", false},
		{"..", false},
		{"a:b", false},
		{"é", false},
		{"aé", false},
		{"a\xff", false},
		{"a@", false}, {"a[", false}, {"a`", false}, {"a{", false}, {"a/", false}, {"a:", false},
	} {
		if got := validName(tc.name); got != tc.ok {
			t.Errorf("validName(%q) = %v, want %v", tc.name, got, tc.ok)
		}
		if got := modelNamePattern.MatchString(tc.name); got != tc.ok {
			t.Errorf("pattern(%q) = %v, want %v: the table is wrong", tc.name, got, tc.ok)
		}
	}
}

// FuzzValidName: on any input the hand-written check agrees with the
// pattern.
func FuzzValidName(f *testing.F) {
	for _, s := range []string{"", "a", "model-1.v2_final", ".x", strings.Repeat("a", 64), strings.Repeat("b", 65), "aé", "a\xff", "a\n"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		if got, want := validName(name), modelNamePattern.MatchString(name); got != want {
			t.Fatalf("validName(%q) = %v, pattern says %v", name, got, want)
		}
	})
}
