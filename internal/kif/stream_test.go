package kif

import (
	"testing"
	"testing/quick"
)

func TestStreamRoundTrip(t *testing.T) {
	var o OStream
	o.Op(SysCreateVPE).Sel(7).Str("hello").U64(99).I64(-5).Blob([]byte{1, 2, 3}).Err(ErrNoSpace)
	i := NewIStream(o.Bytes())
	if got := i.Op(); got != SysCreateVPE {
		t.Fatalf("op = %v", got)
	}
	if got := i.Sel(); got != 7 {
		t.Fatalf("sel = %v", got)
	}
	if got := i.Str(); got != "hello" {
		t.Fatalf("str = %q", got)
	}
	if got := i.U64(); got != 99 {
		t.Fatalf("u64 = %d", got)
	}
	if got := i.I64(); got != -5 {
		t.Fatalf("i64 = %d", got)
	}
	b := i.Blob()
	if len(b) != 3 || b[0] != 1 || b[2] != 3 {
		t.Fatalf("blob = %v", b)
	}
	if got := i.ErrCode(); got != ErrNoSpace {
		t.Fatalf("err = %v", got)
	}
	if i.Err() != nil {
		t.Fatalf("stream err = %v", i.Err())
	}
	if i.Remaining() != 0 {
		t.Fatalf("remaining = %d", i.Remaining())
	}
}

func TestStreamTruncation(t *testing.T) {
	var o OStream
	o.U64(1).Str("abcdef")
	raw := o.Bytes()
	i := NewIStream(raw[:10])
	i.U64()
	_ = i.Str()
	if i.Err() == nil {
		t.Fatal("expected truncation error")
	}
	// Sticky: subsequent reads return zero values without panicking.
	if v := i.U64(); v != 0 {
		t.Fatalf("after error, u64 = %d", v)
	}
}

// A length prefix near the top of the int range must fail as
// truncation: adding it to the read position overflows, which once let
// it past the bounds check and panicked on the slice.
func TestStreamHugeLength(t *testing.T) {
	var o OStream
	o.U64(7).U64(1<<63 - 1).U64(0)
	for _, read := range []func(*IStream){
		func(i *IStream) { _ = i.Str() },
		func(i *IStream) { _ = i.Blob() },
	} {
		i := NewIStream(o.Bytes())
		i.U64()
		read(i)
		if i.Err() == nil {
			t.Fatal("huge length prefix decoded without error")
		}
	}
}

func TestStreamEmptyString(t *testing.T) {
	var o OStream
	o.Str("").Blob(nil)
	i := NewIStream(o.Bytes())
	if s := i.Str(); s != "" {
		t.Fatalf("str = %q", s)
	}
	if b := i.Blob(); len(b) != 0 {
		t.Fatalf("blob = %v", b)
	}
	if i.Err() != nil {
		t.Fatal(i.Err())
	}
}

func TestStreamProperty(t *testing.T) {
	f := func(a uint64, s string, b []byte, c int64) bool {
		var o OStream
		o.U64(a).Str(s).Blob(b).I64(c)
		i := NewIStream(o.Bytes())
		return i.U64() == a && i.Str() == s && string(i.Blob()) == string(b) && i.I64() == c && i.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestErrorStrings(t *testing.T) {
	if OK.Error() != "ok" {
		t.Fatal("OK string")
	}
	if ErrNoSuchFile.Error() != "no such file or directory" {
		t.Fatalf("ErrNoSuchFile = %q", ErrNoSuchFile.Error())
	}
	if Error(9999).Error() != "unknown error" {
		t.Fatal("unknown error string")
	}
	if SysActivate.String() != "activate" {
		t.Fatal("opcode name")
	}
	if SyscallOp(9999).String() != "unknown" {
		t.Fatal("unknown opcode name")
	}
}
