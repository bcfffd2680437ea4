package units

import (
	"testing"
	"testing/quick"
)

// GBps converts gigabytes per second to bytes per second.
func GBps(v float64) float64 { return v * GB }

func TestByteFormatting(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0 B"},
		{512, "512 B"},
		{1.5 * KB, "1.50 KB"},
		{4.2 * GB, "4.20 GB"},
		{303 * MB, "303.00 MB"},
		{1.69 * TB, "1.69 TB"},
	}
	for _, c := range cases {
		if got := Bytes(c.v); got != c.want {
			t.Errorf("Bytes(%g) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestRateFormatting(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{MBps(20), "20.0 MB/s"},
		{MBps(310), "310.0 MB/s"},
		{GBps(1.2), "1.20 GB/s"},
		{500, "500 B/s"},
		{2 * KB, "2.0 KB/s"},
	}
	for _, c := range cases {
		if got := Rate(c.v); got != c.want {
			t.Errorf("Rate(%g) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestDurationFormatting(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{12.34, "12.3s"},
		{75, "1m15.0s"},
		{3600, "1h00m00s"},
		{5363, "1h29m23s"},
		{2500, "41m40.0s"},
	}
	for _, c := range cases {
		if got := Duration(c.v); got != c.want {
			t.Errorf("Duration(%g) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestUSDFormatting(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "$0.00"},
		{0.68, "$0.68"},
		{0.0042, "$0.0042"},
		{12.5, "$12.50"},
	}
	for _, c := range cases {
		if got := USD(c.v); got != c.want {
			t.Errorf("USD(%g) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestUnitRelationships(t *testing.T) {
	if GB != 1000*MB || MB != 1000*KB || KB != 1000*B {
		t.Error("SI units are not powers of 1000")
	}
	if GiB != 1024*MiB || MiB != 1024*KiB {
		t.Error("IEC units are not powers of 1024")
	}
	if Hour != 60*Minute || Minute != 60*Second {
		t.Error("time units inconsistent")
	}
	if MBps(1) != MB {
		t.Error("MBps(1) != 1 MB/s in bytes")
	}
}

// Property: formatting never panics and always returns something non-empty
// for non-negative finite values.
func TestPropertyFormattersTotal(t *testing.T) {
	f := func(raw uint32) bool {
		v := float64(raw)
		return Bytes(v) != "" && Rate(v+1) != "" && Duration(v) != "" && USD(v) != ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
