package m3fs

import (
	"bytes"
	"testing"
	"testing/quick"
)

func buildSample() (*FsCore, map[int][]byte) {
	fs := NewFsCore(1<<20, 1024)
	blocks := map[int][]byte{}
	_, _ = fs.Mkdir("/etc")
	_, _ = fs.Mkdir("/var")
	_, _ = fs.Mkdir("/var/log")
	mk := func(path string, blocksN int, fill byte) {
		ino, _, _ := fs.Create(path)
		ext, _ := fs.Append(ino, blocksN, false)
		fs.Truncate(ino, int64(blocksN*1024-100))
		for b := ext.Start; b < ext.Start+ino.AllocBlocks; b++ {
			content := bytes.Repeat([]byte{fill}, 1024)
			blocks[b] = content
		}
	}
	mk("/etc/passwd", 2, 'p')
	mk("/var/log/sys", 5, 's')
	mk("/readme", 1, 'r')
	return fs, blocks
}

func TestImageRoundTrip(t *testing.T) {
	fs, blocks := buildSample()
	img := fs.MarshalImage(func(b int) []byte { return blocks[b] })
	gotBlocks := map[int][]byte{}
	back, err := UnmarshalImage(img, func(b int, content []byte) error {
		gotBlocks[b] = append([]byte(nil), content...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if back.UsedBlocks() != fs.UsedBlocks() {
		t.Fatalf("used blocks = %d, want %d", back.UsedBlocks(), fs.UsedBlocks())
	}
	for _, path := range []string{"/etc/passwd", "/var/log/sys", "/readme"} {
		orig, _, err1 := fs.Lookup(path)
		rest, _, err2 := back.Lookup(path)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: lookup errs %v / %v", path, err1, err2)
		}
		if orig.Size != rest.Size || len(orig.Extents) != len(rest.Extents) {
			t.Fatalf("%s: %d/%d bytes, %d/%d extents", path,
				orig.Size, rest.Size, len(orig.Extents), len(rest.Extents))
		}
	}
	for b, content := range blocks {
		if !bytes.Equal(gotBlocks[b], content) {
			t.Fatalf("block %d content differs", b)
		}
	}
	// The restored filesystem stays usable.
	if _, _, err := back.Create("/var/new"); err != nil {
		t.Fatal(err)
	}
	if err := back.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestImageDeterministic(t *testing.T) {
	fs, blocks := buildSample()
	a := fs.MarshalImage(func(b int) []byte { return blocks[b] })
	b2 := fs.MarshalImage(func(b int) []byte { return blocks[b] })
	if !bytes.Equal(a, b2) {
		t.Fatal("image serialization is not deterministic")
	}
}

func TestImageCorruption(t *testing.T) {
	fs, _ := buildSample()
	img := fs.MarshalImage(nil)
	// Not an image at all.
	if _, err := UnmarshalImage([]byte("garbage-data-here"), nil); err == nil {
		t.Fatal("garbage must not load")
	}
	// Truncations at various points must fail cleanly, never panic.
	for _, cut := range []int{8, 16, 40, len(img) / 2, len(img) - 3} {
		if cut >= len(img) {
			continue
		}
		if _, err := UnmarshalImage(img[:cut], nil); err == nil {
			t.Fatalf("truncated image (%d bytes) must not load", cut)
		}
	}
	// Bit flips in the header must fail.
	bad := append([]byte(nil), img...)
	bad[0] ^= 0xff
	if _, err := UnmarshalImage(bad, nil); err == nil {
		t.Fatal("wrong magic must not load")
	}
}

func TestImageCorruptionProperty(t *testing.T) {
	fs, _ := buildSample()
	img := fs.MarshalImage(nil)
	f := func(pos uint16, val byte) bool {
		bad := append([]byte(nil), img...)
		bad[int(pos)%len(bad)] ^= val | 1
		// Either it fails to parse, or it parses into a consistent
		// filesystem (the flip hit a benign byte like a name) — it
		// must never produce an inconsistent tree or panic.
		back, err := UnmarshalImage(bad, nil)
		if err != nil {
			return true
		}
		return back.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// An extent whose end overflows int must be refused: {1<<62, 1<<62}
// sums to a negative end that once passed the bounds check, marked no
// block used, and loaded as a clean filesystem.
func TestImageExtentOverflow(t *testing.T) {
	fs := NewFsCore(16<<10, 1024)
	ino, _, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	ino.Extents = []Extent{{Start: 1 << 62, Blocks: 1 << 62}}
	if _, err := UnmarshalImage(fs.MarshalImage(nil), nil); err == nil {
		t.Fatal("image with an overflowing extent loaded")
	}
}

func TestImageEmptyFilesystem(t *testing.T) {
	fs := NewFsCore(64<<10, 1024)
	img := fs.MarshalImage(nil)
	back, err := UnmarshalImage(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.UsedBlocks() != 0 {
		t.Fatalf("empty fs image has %d used blocks", back.UsedBlocks())
	}
	names, _, err := back.ReadDir("/")
	if err != nil || len(names) != 0 {
		t.Fatalf("root = %v, %v", names, err)
	}
}
