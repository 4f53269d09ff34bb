package walkprof

import (
	"bytes"
	"testing"

	"vdirect/internal/addr"
)

// FuzzWalkprofRead: Read rejects arbitrary bytes with an error, never a
// panic, and any sample file it accepts is a fixed point of one
// Write/Read round trip — re-encoding the decoded dump and decoding it
// again reproduces the same bytes.
func FuzzWalkprofRead(f *testing.F) {
	var buf bytes.Buffer
	d := Dump{SchemaVersion: SchemaVersion, Period: 64, Cells: []CellDump{
		{Cell: "gups/4K+4K", Tenant: 0, Samples: []Sample{
			{VPN: 0x400, Size: addr.Page4K, Class: ClassWalkNeither, Scheme: "BaseVirtualized", Refs: 24, Cycles: 180},
			{VPN: 0x401, Size: addr.Page2M, Class: ClassL2Hit, Scheme: "BaseVirtualized", ASID: 3},
		}},
		{Cell: "gups/DD", Tenant: 1, Samples: []Sample{
			{VPN: 0x9, Size: addr.Page1G, Class: ClassZeroD, Scheme: "DualDirect", Cycles: 1},
		}},
	}}
	if err := Write(&buf, d); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"format":"vdirect-walkprof","schema_version":1,"period":1}` + "\n\n"))
	f.Add([]byte(`{"format":"vdirect-walkprof","schema_version":2,"period":1}`))
	f.Add([]byte("not json\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := Write(&first, d); err != nil {
			t.Fatalf("re-encoding an accepted sample file: %v", err)
		}
		back, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		var second bytes.Buffer
		if err := Write(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the file:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
