package core

import (
	"reflect"
	"testing"
)

// TestKernelStatsAddSumsEveryField: add must fold every counter of
// KernelStats, so a newly added field that is missing from add's
// hand-written list fails here instead of silently reading zero in
// System.TotalStats.
func TestKernelStatsAddSumsEveryField(t *testing.T) {
	var a, b KernelStats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	typ := va.Type()
	for i := 0; i < va.NumField(); i++ {
		if k := va.Field(i).Kind(); k < reflect.Uint || k > reflect.Uint64 {
			t.Fatalf("KernelStats.%s has kind %s; extend this test for it", typ.Field(i).Name, k)
		}
		va.Field(i).SetUint(uint64(i + 1))
		vb.Field(i).SetUint(uint64(1000 * (i + 1)))
	}
	a.add(b)
	for i := 0; i < va.NumField(); i++ {
		if got, want := va.Field(i).Uint(), uint64(1001*(i+1)); got != want {
			t.Errorf("KernelStats.%s = %d after add, want %d", typ.Field(i).Name, got, want)
		}
	}
}
