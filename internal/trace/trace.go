// Package trace implements the paper's benchmark methodology (§5.6):
// the four BusyBox benchmarks were first run on Linux under strace,
// "the results were combined into a data structure that specifies
// which syscall to execute including its arguments", with wait entries
// for computation time, and a replayer executed that data structure
// through the other system's API.
//
// Recorder captures a workload's OS-level operations (and its compute
// gaps) while it runs on either system; Replay executes a captured
// trace against any workload.OS. Traces marshal to bytes, so they can
// be stored like the paper's recorded strace data.
package trace

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/kif"
	"repro/internal/workload"
)

// Kind is the operation type of a trace record.
type Kind uint8

// Operation kinds.
const (
	KCompute Kind = iota + 1 // the paper's "wait" entries
	KOpen
	KRead
	KWrite
	KSeek
	KClose
	KStat
	KMkdir
	KUnlink
	KReadDir
	KCopyRange
)

var kindNames = map[Kind]string{
	KCompute: "compute", KOpen: "open", KRead: "read", KWrite: "write",
	KSeek: "seek", KClose: "close", KStat: "stat", KMkdir: "mkdir",
	KUnlink: "unlink", KReadDir: "readdir", KCopyRange: "copyrange",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "unknown"
}

// Record is one traced operation.
type Record struct {
	Kind   Kind
	FD     int // recorder-assigned file id
	SrcFD  int // source file for copyrange
	Path   string
	Flags  workload.OpenFlags
	Size   int
	Off    int64
	Whence int
	Cycles uint64
}

// Trace is a recorded operation sequence.
type Trace struct {
	Records []Record
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.Records) }

// Marshal encodes the trace.
func (t *Trace) Marshal() []byte {
	var o kif.OStream
	o.U64(uint64(len(t.Records)))
	for _, r := range t.Records {
		o.U64(uint64(r.Kind)).I64(int64(r.FD)).I64(int64(r.SrcFD)).Str(r.Path)
		o.U64(uint64(r.Flags)).I64(int64(r.Size)).I64(r.Off).I64(int64(r.Whence)).U64(r.Cycles)
	}
	return o.Bytes()
}

// minRecordBytes is the encoded size of a record with an empty path:
// nine 8-byte fields, the path's length prefix among them.
const minRecordBytes = 9 * 8

// Unmarshal decodes a trace produced by Marshal.
func Unmarshal(data []byte) (*Trace, error) {
	is := kif.NewIStream(data)
	n := is.U64()
	// The record count is checked against the bytes actually left, so
	// a forged header cannot size the record slice beyond the input.
	if is.Err() != nil || n > uint64(is.Remaining()/minRecordBytes) {
		return nil, fmt.Errorf("trace: corrupt header")
	}
	t := &Trace{Records: make([]Record, 0, n)}
	for i := uint64(0); i < n; i++ {
		r := Record{
			Kind:  Kind(is.U64()),
			FD:    int(is.I64()),
			SrcFD: int(is.I64()),
			Path:  is.Str(),
		}
		r.Flags = workload.OpenFlags(is.U64())
		r.Size = int(is.I64())
		r.Off = is.I64()
		r.Whence = int(is.I64())
		r.Cycles = is.U64()
		if is.Err() != nil {
			return nil, fmt.Errorf("trace: corrupt record %d: %w", i, is.Err())
		}
		if r.Size < 0 {
			return nil, fmt.Errorf("trace: record %d has negative size %d", i, r.Size)
		}
		t.Records = append(t.Records, r)
	}
	return t, nil
}

// Recorder wraps a workload.OS and logs every operation. It does not
// capture payload bytes — like strace, only the arguments — so replay
// writes synthetic data of the recorded sizes.
type Recorder struct {
	inner workload.OS
	T     *Trace
	next  int
}

var _ workload.OS = (*Recorder)(nil)

// NewRecorder wraps inner.
func NewRecorder(inner workload.OS) *Recorder {
	return &Recorder{inner: inner, T: &Trace{}, next: 1}
}

func (r *Recorder) log(rec Record) { r.T.Records = append(r.T.Records, rec) }

// Compute records a wait entry and forwards.
func (r *Recorder) Compute(cycles uint64) {
	r.log(Record{Kind: KCompute, Cycles: cycles})
	r.inner.Compute(cycles)
}

// Open forwards and assigns a trace file id.
func (r *Recorder) Open(path string, flags workload.OpenFlags) (workload.File, error) {
	f, err := r.inner.Open(path, flags)
	if err != nil {
		return nil, err
	}
	id := r.next
	r.next++
	r.log(Record{Kind: KOpen, FD: id, Path: path, Flags: flags})
	return &recFile{r: r, f: f, id: id}, nil
}

// Stat forwards and records.
func (r *Recorder) Stat(path string) (workload.Stat, error) {
	r.log(Record{Kind: KStat, Path: path})
	return r.inner.Stat(path)
}

// Mkdir forwards and records.
func (r *Recorder) Mkdir(path string) error {
	r.log(Record{Kind: KMkdir, Path: path})
	return r.inner.Mkdir(path)
}

// Unlink forwards and records.
func (r *Recorder) Unlink(path string) error {
	r.log(Record{Kind: KUnlink, Path: path})
	return r.inner.Unlink(path)
}

// ReadDir forwards and records.
func (r *Recorder) ReadDir(path string) ([]string, error) {
	r.log(Record{Kind: KReadDir, Path: path})
	return r.inner.ReadDir(path)
}

// CopyRange forwards and records when both files are traced.
func (r *Recorder) CopyRange(dst, src workload.File, n int) (int, bool, error) {
	d, ok1 := dst.(*recFile)
	s, ok2 := src.(*recFile)
	if !ok1 || !ok2 {
		return 0, false, nil
	}
	c, ok, err := r.inner.CopyRange(d.f, s.f, n)
	if ok {
		r.log(Record{Kind: KCopyRange, FD: d.id, SrcFD: s.id, Size: c})
	}
	return c, ok, err
}

// CoreType forwards.
func (r *Recorder) CoreType() string { return r.inner.CoreType() }

// PipeFromChild is not recordable: the paper replayed only the
// single-process benchmarks (tar, untar, find, sqlite); cat+tr was
// implemented natively on both systems.
func (r *Recorder) PipeFromChild(string, func(workload.OS, workload.File)) (workload.File, func(), error) {
	return nil, nil, errors.New("trace: pipes are not recordable")
}

// PipeToChild is not recordable either.
func (r *Recorder) PipeToChild(string, string, func(workload.OS, workload.File)) (workload.File, func(), error) {
	return nil, nil, errors.New("trace: pipes are not recordable")
}

// recFile wraps a file to record per-descriptor operations.
type recFile struct {
	r  *Recorder
	f  workload.File
	id int
}

func (f *recFile) Read(buf []byte) (int, error) {
	n, err := f.f.Read(buf)
	f.r.log(Record{Kind: KRead, FD: f.id, Size: len(buf)})
	return n, err
}

func (f *recFile) Write(buf []byte) (int, error) {
	n, err := f.f.Write(buf)
	f.r.log(Record{Kind: KWrite, FD: f.id, Size: len(buf)})
	return n, err
}

func (f *recFile) Close() error {
	f.r.log(Record{Kind: KClose, FD: f.id})
	return f.f.Close()
}

func (f *recFile) Seek(off int64, whence int) (int64, error) {
	sf, ok := f.f.(workload.SeekableFile)
	if !ok {
		return 0, errors.New("trace: file is not seekable")
	}
	f.r.log(Record{Kind: KSeek, FD: f.id, Off: off, Whence: whence})
	return sf.Seek(off, whence)
}

// Replay executes a trace against os, like the paper's replay program:
// each recorded syscall runs through the corresponding API, compute
// records become plain computation of the same length.
func Replay(os workload.OS, t *Trace) error {
	files := make(map[int]workload.File)
	buf := make([]byte, 64<<10)
	for i, rec := range t.Records {
		var err error
		switch rec.Kind {
		case KCompute:
			os.Compute(rec.Cycles)
		case KOpen:
			var f workload.File
			f, err = os.Open(rec.Path, rec.Flags)
			if err == nil {
				files[rec.FD] = f
			}
		case KRead:
			err = withFile(files, rec.FD, func(f workload.File) error {
				_, rerr := f.Read(sized(buf, rec.Size))
				if errors.Is(rerr, io.EOF) {
					return nil
				}
				return rerr
			})
		case KWrite:
			err = withFile(files, rec.FD, func(f workload.File) error {
				_, werr := f.Write(sized(buf, rec.Size))
				return werr
			})
		case KSeek:
			err = withFile(files, rec.FD, func(f workload.File) error {
				sf, ok := f.(workload.SeekableFile)
				if !ok {
					return errors.New("trace: replay seek on non-seekable file")
				}
				_, serr := sf.Seek(rec.Off, rec.Whence)
				return serr
			})
		case KClose:
			err = withFile(files, rec.FD, func(f workload.File) error {
				delete(files, rec.FD)
				return f.Close()
			})
		case KStat:
			_, err = os.Stat(rec.Path)
		case KMkdir:
			err = os.Mkdir(rec.Path)
		case KUnlink:
			err = os.Unlink(rec.Path)
		case KReadDir:
			_, err = os.ReadDir(rec.Path)
		case KCopyRange:
			err = withFile(files, rec.FD, func(dst workload.File) error {
				return withFile(files, rec.SrcFD, func(src workload.File) error {
					n, ok, cerr := os.CopyRange(dst, src, rec.Size)
					if !ok {
						// The replaying system has no in-kernel copy:
						// fall back to read+write of the same size.
						_, rerr := src.Read(sized(buf, rec.Size))
						if rerr != nil && !errors.Is(rerr, io.EOF) {
							return rerr
						}
						_, werr := dst.Write(sized(buf, rec.Size))
						return werr
					}
					_ = n
					if errors.Is(cerr, io.EOF) {
						return nil
					}
					return cerr
				})
			})
		default:
			err = fmt.Errorf("trace: unknown record kind %d", rec.Kind)
		}
		if err != nil {
			return fmt.Errorf("trace: record %d (%s %s): %w", i, rec.Kind, rec.Path, err)
		}
	}
	return nil
}

func withFile(files map[int]workload.File, fd int, fn func(workload.File) error) error {
	f, ok := files[fd]
	if !ok {
		return fmt.Errorf("trace: unknown file id %d", fd)
	}
	return fn(f)
}

func sized(buf []byte, n int) []byte {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]byte, n)
}
