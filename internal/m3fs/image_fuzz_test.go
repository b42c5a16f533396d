package m3fs

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalImage hammers UnmarshalImage, the decoder behind
// m3fsck and image mounts, with arbitrary bytes. Any input either
// fails with an error or loads a filesystem that passes fsck and whose
// re-marshalled image decodes back to the same bytes; it never panics.
func FuzzUnmarshalImage(f *testing.F) {
	fs, blocks := buildSample()
	f.Add(fs.MarshalImage(func(b int) []byte { return blocks[b] }))
	f.Add(fs.MarshalImage(nil))
	f.Add(NewFsCore(64<<10, 1024).MarshalImage(nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, img []byte) {
		back, err := UnmarshalImage(img, nil)
		if err != nil {
			return
		}
		if err := back.CheckInvariants(); err != nil {
			t.Fatalf("loaded image fails fsck: %v", err)
		}
		again := back.MarshalImage(nil)
		back2, err := UnmarshalImage(again, nil)
		if err != nil {
			t.Fatalf("re-marshalled image does not load: %v", err)
		}
		if !bytes.Equal(back2.MarshalImage(nil), again) {
			t.Fatal("image does not round-trip")
		}
	})
}
