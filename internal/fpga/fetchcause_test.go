package fpga

import (
	"testing"

	"kona/internal/mem"
)

// Every remote fetch is counted under the cause its caller named: a demand
// fill (read), a read-for-ownership of a partly written line (rfo), or a
// speculative fill (prefetch). The causes sum to RemoteFetches on every
// fill path: single-page, sub-page block, span read and prefetch window.
func TestFetchCausesSumToRemoteFetches(t *testing.T) {
	at := func(page, off uint64) mem.Addr { return rigBase + mem.Addr(page*mem.PageSize+off) }
	cases := []struct {
		name string
		cfg  Config
		run  func(t *testing.T, f *FPGA)
		// want is the exact split; nil asserts only the sum and that the
		// read and prefetch causes both occurred.
		want *[NumFetchCauses]uint64
	}{
		{
			name: "demand fills and next-page prefetch",
			cfg:  Config{FMemSize: 64 * mem.PageSize, PrefetchDepth: 1},
			run: func(t *testing.T, f *FPGA) {
				for p := uint64(0); p < 2; p++ {
					if _, err := f.LineFill(0, at(p, 0)); err != nil {
						t.Fatal(err)
					}
				}
			},
			want: &[NumFetchCauses]uint64{2, 0, 1},
		},
		{
			name: "boundary-line RFO, then a demand fill of a claimed page",
			cfg:  Config{FMemSize: 64 * mem.PageSize},
			run: func(t *testing.T, f *FPGA) {
				// Lines 0 and 1 both partly written: one page fetch covers both.
				if _, err := f.Write(0, at(0, 30), make([]byte, 70)); err != nil {
					t.Fatal(err)
				}
				// A whole line is claimed without a fetch; reading another
				// line of the page is a demand fill.
				if _, err := f.Write(0, at(1, 0), make([]byte, mem.CacheLineSize)); err != nil {
					t.Fatal(err)
				}
				if _, err := f.Read(0, at(1, 5*mem.CacheLineSize), make([]byte, 8)); err != nil {
					t.Fatal(err)
				}
			},
			want: &[NumFetchCauses]uint64{1, 1, 0},
		},
		{
			name: "sub-page blocks",
			cfg:  Config{FMemSize: 16 * mem.PageSize, FetchBytes: 256},
			run: func(t *testing.T, f *FPGA) {
				if _, err := f.Write(0, at(0, 100), []byte{1, 2}); err != nil {
					t.Fatal(err)
				}
				if _, err := f.Read(0, at(0, 1024), make([]byte, 512)); err != nil {
					t.Fatal(err)
				}
			},
			want: &[NumFetchCauses]uint64{2, 1, 0},
		},
		{
			name: "multi-page span read",
			cfg:  Config{FMemSize: 64 * mem.PageSize},
			run: func(t *testing.T, f *FPGA) {
				if _, err := f.Read(0, at(20, 0), make([]byte, 3*mem.PageSize)); err != nil {
					t.Fatal(err)
				}
			},
			// One ReadRange brought all three pages: one fetch.
			want: &[NumFetchCauses]uint64{1, 0, 0},
		},
		{
			name: "stride window with span reads",
			cfg:  Config{FMemSize: 64 * mem.PageSize, PrefetchDepth: 4},
			run: func(t *testing.T, f *FPGA) {
				for p := uint64(0); p < 20; p += 2 {
					if _, err := f.LineFill(0, at(p, 0)); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newFreshRig(tc.cfg, 0)
			tc.run(t, r.f)
			st := r.f.Stats()
			var sum uint64
			for _, n := range st.Fetches {
				sum += n
			}
			if sum != st.RemoteFetches || sum == 0 {
				t.Fatalf("causes %v sum to %d, RemoteFetches %d", st.Fetches, sum, st.RemoteFetches)
			}
			if st.Fetches[FetchPrefetch] != st.Prefetches {
				t.Errorf("prefetch cause %d, Prefetches %d", st.Fetches[FetchPrefetch], st.Prefetches)
			}
			if tc.want != nil && st.Fetches != *tc.want {
				t.Errorf("fetches by cause (read, rfo, prefetch) = %v, want %v", st.Fetches, *tc.want)
			}
			if tc.want == nil && (st.Fetches[FetchRead] == 0 || st.Fetches[FetchPrefetch] == 0) {
				t.Errorf("fetches by cause (read, rfo, prefetch) = %v, want demand and prefetch fetches", st.Fetches)
			}
		})
	}
}
