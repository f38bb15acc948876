package cache

import "testing"

func TestLRUBounds(t *testing.T) {
	type op struct {
		kind byte // 'p' Put, 'g' Get, 'r' Remove
		key  string
		size int64
	}
	put := func(k string, size int64) op { return op{kind: 'p', key: k, size: size} }
	get := func(k string) op { return op{kind: 'g', key: k} }
	del := func(k string) op { return op{kind: 'r', key: k} }
	cases := []struct {
		name       string
		maxEntries int
		maxBytes   int64
		ops        []op
		resident   []string
		gone       []string
		bytes      int64
		evicted    int
	}{
		{
			name:       "entry bound evicts the least recently used",
			maxEntries: 2,
			ops:        []op{put("a", 1), put("b", 1), get("a"), put("c", 1)},
			resident:   []string{"a", "c"},
			gone:       []string{"b"},
			bytes:      2,
			evicted:    1,
		},
		{
			name:     "byte bound evicts until the sum fits",
			maxBytes: 100,
			ops:      []op{put("a", 60), put("b", 30), get("a"), put("c", 30)},
			resident: []string{"a", "c"},
			gone:     []string{"b"},
			bytes:    90,
			evicted:  1,
		},
		{
			name:     "a single oversized entry is kept",
			maxBytes: 100,
			ops:      []op{put("a", 10), put("big", 500)},
			resident: []string{"big"},
			gone:     []string{"a"},
			bytes:    500,
			evicted:  1,
		},
		{
			name:     "re-putting a key replaces its size",
			maxBytes: 100,
			ops:      []op{put("a", 60), put("a", 30), put("b", 60)},
			resident: []string{"a", "b"},
			bytes:    90,
			evicted:  0,
		},
		{
			name:     "remove releases the entry's bytes",
			maxBytes: 100,
			ops:      []op{put("a", 60), del("a"), put("b", 60)},
			resident: []string{"b"},
			gone:     []string{"a"},
			bytes:    60,
			evicted:  0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLRU[string](tc.maxEntries, tc.maxBytes)
			evicted := 0
			for i, o := range tc.ops {
				switch o.kind {
				case 'p':
					evicted += l.Put(key(o.key), o.key, o.size)
				case 'g':
					if v, ok := l.Get(key(o.key)); !ok || v != o.key {
						t.Fatalf("op %d: Get(%s) = %q, %v", i, o.key, v, ok)
					}
				case 'r':
					l.Remove(key(o.key))
				}
			}
			if evicted != tc.evicted {
				t.Errorf("evicted %d entries, want %d", evicted, tc.evicted)
			}
			if l.Bytes() != tc.bytes {
				t.Errorf("bytes = %d, want %d", l.Bytes(), tc.bytes)
			}
			if l.Len() != len(tc.resident) {
				t.Errorf("len = %d, want %d", l.Len(), len(tc.resident))
			}
			for _, k := range tc.resident {
				if _, ok := l.Get(key(k)); !ok {
					t.Errorf("%s evicted, want resident", k)
				}
			}
			for _, k := range tc.gone {
				if _, ok := l.Get(key(k)); ok {
					t.Errorf("%s resident, want evicted", k)
				}
			}
		})
	}
}
