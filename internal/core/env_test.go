package core

import "testing"

// TestParseOverrides pins the override grammar through a fake environment:
// switches accept "1" and "on", numbers must be positive decimals, and
// anything unparsable is ignored rather than an error.
func TestParseOverrides(t *testing.T) {
	cases := []struct {
		name string
		env  map[string]string
		want Overrides
	}{
		{"empty", nil, Overrides{}},
		{"all set", map[string]string{
			"SPLITVM_LAZY":            "1",
			"SPLITVM_TIER":            "on",
			"SPLITVM_MEM_LIMIT":       "1048576",
			"SPLITVM_DISK_CACHE":      "/var/cache/svd",
			"SPLITVM_COMPILE_WORKERS": "8",
		}, Overrides{Lazy: true, Tier: true, MemLimit: 1 << 20, DiskCache: "/var/cache/svd", CompileWorkers: 8}},
		{"switches need 1 or on", map[string]string{
			"SPLITVM_LAZY": "true",
			"SPLITVM_TIER": "0",
		}, Overrides{}},
		{"bad numbers ignored", map[string]string{
			"SPLITVM_MEM_LIMIT":       "-5",
			"SPLITVM_COMPILE_WORKERS": "many",
		}, Overrides{}},
		{"zero numbers mean unset", map[string]string{
			"SPLITVM_MEM_LIMIT":       "0",
			"SPLITVM_COMPILE_WORKERS": "0",
		}, Overrides{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := ParseOverrides(func(key string) string { return tc.env[key] })
			if got != tc.want {
				t.Fatalf("ParseOverrides = %+v, want %+v", got, tc.want)
			}
		})
	}
}
