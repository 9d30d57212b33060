package units

import (
	"testing"
	"testing/quick"
)

func TestString(t *testing.T) {
	cases := []struct {
		b    Bytes
		want string
	}{
		{0, "0B"},
		{8, "8B"},
		{1023, "1023B"},
		{KiB, "1KiB"},
		{256 * MiB, "256MiB"},
		{48 * GiB, "48GiB"},
		{1536 * MiB, "1.5GiB"},
		{-2 * KiB, "-2KiB"},
	}
	for _, c := range cases {
		if got := c.b.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.b), got, c.want)
		}
	}
}

func TestGiBvsGB(t *testing.T) {
	// The paper's Table I: VE memory bandwidth 1228.8 GB/s is decimal.
	if got := Bytes(1228_800_000_000).GBs(); got != 1228.8 {
		t.Errorf("GBs = %v, want 1228.8", got)
	}
	// 48 GiB HBM is binary.
	if got := (48 * GiB).Int64(); got != 48*(1<<30) {
		t.Errorf("48GiB = %d", got)
	}
}

func TestAlign(t *testing.T) {
	if AlignUp(5, 8) != 8 || AlignUp(8, 8) != 8 || AlignUp(9, 8) != 16 {
		t.Error("AlignUp broken")
	}
	if AlignUp(5, 0) != 5 {
		t.Error("AlignUp with zero align should be identity")
	}
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, b := range []Bytes{1, 2, 4, 1024, GiB} {
		if !IsPowerOfTwo(b) {
			t.Errorf("%v should be a power of two", b)
		}
	}
	for _, b := range []Bytes{0, -2, 3, 1000} {
		if IsPowerOfTwo(b) {
			t.Errorf("%v should not be a power of two", b)
		}
	}
}

func TestAlignProperties(t *testing.T) {
	f := func(bRaw uint32, shift uint8) bool {
		b := Bytes(bRaw)
		align := Bytes(1) << (shift % 20)
		up := AlignUp(b, align)
		return up >= b && up%align == 0 && up-b < align
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
