package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/m3fs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Workload inputs are generated on the host from the seed before the
// first simulation and fed to the simulated program unchanged. Every
// generator draws from fixed multisets (sizes, op kinds) and only
// shuffles and names them by seed, so the amount of work is nearly the
// same for every seed and run-to-run spread measures the host, not the
// input.

// Paper §5.6: tar/untar work on a 1.2 MiB archive of 60-500 KiB files.
var bulkBaseSizes = []int{60 << 10, 100 << 10, 150 << 10, 200 << 10, 219 << 10, 500 << 10}

const (
	bulkMinSize  = 60 << 10
	bulkMaxSize  = 500 << 10
	bulkBufSize  = 4 << 10
	tarHdrSize   = 512
	tarHdrCost   = 2000 // cycles to build or parse one header, as workload.Tar
	archivePath  = "/archive.tar"
	treeRoot     = "/t"
	metaMaxSize  = 2048
	metaMinSize  = 64
	metaNameHex  = 8
	metaReadBuf  = 4 << 10
	findLikeCost = 3000 // cycles of app work per matched entry, as workload.Find
)

// genFile is one generated file: its path (bulk: its name) and content.
type genFile struct {
	name string
	data []byte
}

// bulkInput is the bulk workload's seeded source set.
type bulkInput struct{ files []genFile }

func genBulk(seed uint64) *bulkInput {
	r := sim.NewRand(seed ^ 0xB01C)
	sizes := append([]int(nil), bulkBaseSizes...)
	shuffle(r, len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	// Move bytes between members: the total stays 1.2 MiB, each member
	// stays within the paper's 60-500 KiB range, and most sizes stop
	// being block-aligned.
	for k := 0; k < 16; k++ {
		i, j := int(r.Uint64()%uint64(len(sizes))), int(r.Uint64()%uint64(len(sizes)))
		room := min(sizes[i]-bulkMinSize, bulkMaxSize-sizes[j])
		if i == j || room <= 0 {
			continue
		}
		d := int(r.Uint64() % uint64(room+1))
		sizes[i] -= d
		sizes[j] += d
	}
	in := &bulkInput{}
	for i, sz := range sizes {
		in.files = append(in.files, genFile{
			name: fmt.Sprintf("m%d_%0*x", i, metaNameHex, r.Uint64()&0xffffffff),
			data: genBytes(r.Uint64(), sz),
		})
	}
	return in
}

// program returns the bulk workload as a workload.Benchmark: setup
// writes the sources, run is tar, untar, a byte-for-byte comparison of
// the untarred files with their sources, and removal of the archive.
func (in *bulkInput) program() workload.Benchmark {
	return workload.Benchmark{
		Name: "bulk",
		PEs:  1,
		Setup: func(os workload.OS) error {
			if err := os.Mkdir("/src"); err != nil {
				return err
			}
			for _, f := range in.files {
				if err := writeFile(os, "/src/"+f.name, f.data, bulkBufSize); err != nil {
					return err
				}
			}
			return os.Mkdir("/dst")
		},
		Run: func(os workload.OS) error {
			if err := tarDir(os, "/src", archivePath); err != nil {
				return fmt.Errorf("tar: %w", err)
			}
			if err := untar(os, archivePath, "/dst"); err != nil {
				return fmt.Errorf("untar: %w", err)
			}
			for _, f := range in.files {
				if err := compareFile(os, "/dst/"+f.name, f.data, bulkBufSize); err != nil {
					return err
				}
			}
			return os.Unlink(archivePath)
		},
	}
}

// checkTree compares the service's final filesystem with the model:
// /src and /dst hold exactly the sources, and the archive is gone.
func (in *bulkInput) checkTree(fs *m3fs.FsCore) error {
	want := map[string]int64{}
	for _, f := range in.files {
		want[f.name] = int64(len(f.data))
	}
	if err := expectDir(fs, "/", map[string]int64{"src": -1, "dst": -1}); err != nil {
		return err
	}
	if err := expectDir(fs, "/src", want); err != nil {
		return err
	}
	return expectDir(fs, "/dst", want)
}

func tarDir(os workload.OS, dir, archive string) error {
	names, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	arch, err := os.Open(archive, workload.Write|workload.Create|workload.Trunc)
	if err != nil {
		return err
	}
	hdr := make([]byte, tarHdrSize)
	buf := make([]byte, bulkBufSize)
	for _, name := range names {
		path := dir + "/" + name
		st, err := os.Stat(path)
		if err != nil {
			return err
		}
		os.Compute(tarHdrCost)
		clear(hdr)
		copy(hdr, name)
		putDecimal(hdr[100:120], st.Size)
		if _, err := arch.Write(hdr); err != nil {
			return err
		}
		f, err := os.Open(path, workload.Read)
		if err != nil {
			return err
		}
		n, err := copyFile(arch, f, buf, st.Size)
		if err != nil {
			return err
		}
		if n != st.Size {
			return fmt.Errorf("%s: copied %d of %d bytes", path, n, st.Size)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return arch.Close()
}

func untar(os workload.OS, archive, dst string) error {
	arch, err := os.Open(archive, workload.Read)
	if err != nil {
		return err
	}
	hdr := make([]byte, tarHdrSize)
	buf := make([]byte, bulkBufSize)
	for {
		if _, err := io.ReadFull(fileReader{arch}, hdr); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return err
		}
		os.Compute(tarHdrCost)
		name := string(hdr[:bytes.IndexByte(hdr, 0)])
		size := getDecimal(hdr[100:120])
		out, err := os.Open(dst+"/"+name, workload.Write|workload.Create|workload.Trunc)
		if err != nil {
			return err
		}
		n, err := copyFile(out, arch, buf, size)
		if err != nil {
			return err
		}
		if n != size {
			return fmt.Errorf("%s: archive member truncated at %d of %d bytes", name, n, size)
		}
		if err := out.Close(); err != nil {
			return err
		}
	}
	return arch.Close()
}

// copyFile moves exactly size bytes (less at EOF) from src to dst in
// len(buf) chunks.
func copyFile(dst, src workload.File, buf []byte, size int64) (int64, error) {
	var done int64
	for done < size {
		want := min(int64(len(buf)), size-done)
		n, err := src.Read(buf[:want])
		if n > 0 {
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return done, werr
			}
			done += int64(n)
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return done, nil
			}
			return done, err
		}
	}
	return done, nil
}

// metaParams sizes one meta client: its tree and its op stream.
type metaParams struct {
	dirs, files, ops int
}

// One meta unit is find's tree (§5.6: 40 items, 4 directories of 9
// files) and one pass of opMix. A scale client runs one unit; meta runs
// scaleClients units merged into one tree and one stream on a single
// client, so meta and scale do the same traffic and differ only in
// concurrency.
var (
	metaUnit   = metaParams{dirs: 4, files: 36, ops: opMixLen}
	metaSingle = metaParams{dirs: scaleClients * 4, files: scaleClients * 36, ops: scaleClients * opMixLen}
)

// opKind is one meta operation.
type opKind uint8

const (
	mStat opKind = iota
	mReadDir
	mRead
	mCreate
	mUnlink
	numOpKinds
)

// opMix is the measured run-phase traffic of workload.All on M3 (see
// mix.go): 40 stat, 5 readdir, 8 open-read-close, 10 create-write-close,
// 1 unlink. A meta stream is whole passes of it, shuffled.
var opMix = [numOpKinds]int{mStat: 40, mReadDir: 5, mRead: 8, mCreate: 10, mUnlink: 1}

const opMixLen = 64 // sum of opMix

// metaOp is one generated operation with its expected result.
type metaOp struct {
	kind  opKind
	path  string
	data  []byte   // mRead: expected content; mCreate: content to write
	names []string // mReadDir: expected sorted listing
	size  int64    // mStat: expected size
}

// metaInput is a meta client's seeded tree, op stream, and the model
// of the tree the stream leaves behind.
type metaInput struct {
	dirs  []string
	files []genFile // initial tree, paths absolute below treeRoot
	ops   []metaOp
	final map[string]map[string]int64 // dir -> entry -> size (-1 for dirs)
}

func genMeta(seed uint64, p metaParams) *metaInput {
	r := sim.NewRand(seed ^ 0x3E7A)
	in := &metaInput{}
	for d := 0; d < p.dirs; d++ {
		in.dirs = append(in.dirs, fmt.Sprintf("%s/d%d", treeRoot, d))
	}
	// File sizes are a fixed multiset (64 B .. 2 KiB, evenly spaced),
	// shuffled, so every seed writes the same number of bytes.
	sizes := make([]int, p.files+p.ops)
	for i := range sizes {
		sizes[i] = metaMinSize + i*(metaMaxSize-metaMinSize)/(len(sizes)-1)
	}
	shuffle(r, len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	next := 0
	newFile := func() genFile {
		dir := in.dirs[r.Uint64()%uint64(len(in.dirs))]
		f := genFile{
			name: fmt.Sprintf("%s/f%04d_%0*x", dir, next, metaNameHex, r.Uint64()&0xffffffff),
			data: genBytes(r.Uint64(), sizes[next]),
		}
		next++
		return f
	}
	live := map[string][]byte{}
	var order []string // live paths, for seeded picks independent of map order
	for i := 0; i < p.files; i++ {
		f := newFile()
		in.files = append(in.files, f)
		live[f.name] = f.data
		order = append(order, f.name)
	}
	kinds := make([]opKind, 0, p.ops)
	for len(kinds) < p.ops {
		for k, n := range opMix {
			for i := 0; i < n && len(kinds) < p.ops; i++ {
				kinds = append(kinds, opKind(k))
			}
		}
	}
	shuffle(r, len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	pick := func() int { return int(r.Uint64() % uint64(len(order))) }
	for _, k := range kinds {
		op := metaOp{kind: k}
		switch k {
		case mStat:
			op.path = order[pick()]
			op.size = int64(len(live[op.path]))
		case mRead:
			op.path = order[pick()]
			op.data = live[op.path]
		case mReadDir:
			op.path = in.dirs[r.Uint64()%uint64(len(in.dirs))]
			op.names = listing(order, op.path)
		case mCreate:
			f := newFile()
			op.path, op.data = f.name, f.data
			live[f.name] = f.data
			order = append(order, f.name)
		case mUnlink:
			i := pick()
			op.path = order[i]
			delete(live, op.path)
			order = append(order[:i], order[i+1:]...)
		}
		in.ops = append(in.ops, op)
	}
	in.final = map[string]map[string]int64{"": {"t": -1}, treeRoot: {}}
	for _, d := range in.dirs {
		in.final[treeRoot][d[len(treeRoot)+1:]] = -1
		in.final[d] = map[string]int64{}
	}
	for _, path := range order {
		dir, name := splitPath(path)
		in.final[dir][name] = int64(len(live[path]))
	}
	return in
}

// listing returns the sorted names of the live files in dir.
func listing(paths []string, dir string) []string {
	var names []string
	for _, p := range paths {
		if d, name := splitPath(p); d == dir {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// setup creates the tree; run replays the op stream, checking every
// result against the generator's model.
func (in *metaInput) setup(os workload.OS) error {
	if err := os.Mkdir(treeRoot); err != nil {
		return err
	}
	for _, d := range in.dirs {
		if err := os.Mkdir(d); err != nil {
			return err
		}
	}
	for _, f := range in.files {
		if err := writeFile(os, f.name, f.data, len(f.data)); err != nil {
			return err
		}
	}
	return nil
}

func (in *metaInput) run(os workload.OS) error {
	for i, op := range in.ops {
		if err := doOp(os, op); err != nil {
			return fmt.Errorf("op %d (%s %s): %w", i, opNames[op.kind], op.path, err)
		}
	}
	return nil
}

var opNames = [...]string{mStat: "stat", mReadDir: "readdir", mRead: "read", mCreate: "create", mUnlink: "unlink"}

func doOp(os workload.OS, op metaOp) error {
	switch op.kind {
	case mStat:
		st, err := os.Stat(op.path)
		if err != nil {
			return err
		}
		if st.IsDir || st.Size != op.size {
			return fmt.Errorf("stat says size %d dir %v, want %d", st.Size, st.IsDir, op.size)
		}
	case mReadDir:
		names, err := os.ReadDir(op.path)
		if err != nil {
			return err
		}
		os.Compute(uint64(findLikeCost * len(names)))
		if strings.Join(names, "/") != strings.Join(op.names, "/") {
			return fmt.Errorf("listing has %d entries, want %d", len(names), len(op.names))
		}
	case mRead:
		return compareFile(os, op.path, op.data, metaReadBuf)
	case mCreate:
		return writeFile(os, op.path, op.data, len(op.data))
	case mUnlink:
		return os.Unlink(op.path)
	}
	return nil
}

// checkTree compares the service's final filesystem below prefix with
// the model.
func (in *metaInput) checkTree(fs *m3fs.FsCore, prefix string) error {
	for dir, want := range in.final {
		path := prefix + dir
		if path == "" {
			path = "/"
		}
		if err := expectDir(fs, path, want); err != nil {
			return err
		}
	}
	return nil
}

// expectDir checks that dir holds exactly the wanted entries, with
// the wanted sizes (-1 marks a directory).
func expectDir(fs *m3fs.FsCore, dir string, want map[string]int64) error {
	names, ino, err := fs.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("final tree: %w", err)
	}
	if len(names) != len(want) {
		return fmt.Errorf("final tree: %s has %d entries, want %d", dir, len(names), len(want))
	}
	for _, n := range names {
		size, ok := want[n]
		if !ok {
			return fmt.Errorf("final tree: unexpected %s/%s", dir, n)
		}
		child := fs.Child(ino, n)
		if child == nil || child.Dir != (size < 0) || (size >= 0 && child.Size != size) {
			return fmt.Errorf("final tree: %s/%s does not match the model", dir, n)
		}
	}
	return nil
}

func writeFile(os workload.OS, path string, data []byte, chunk int) error {
	f, err := os.Open(path, workload.Write|workload.Create|workload.Trunc)
	if err != nil {
		return err
	}
	for off := 0; off < len(data); off += chunk {
		if _, err := f.Write(data[off:min(off+chunk, len(data))]); err != nil {
			return err
		}
	}
	return f.Close()
}

// compareFile reads path in chunk-sized reads and checks it holds
// exactly want.
func compareFile(os workload.OS, path string, want []byte, chunk int) error {
	f, err := os.Open(path, workload.Read)
	if err != nil {
		return err
	}
	buf := make([]byte, chunk)
	off := 0
	for {
		n, err := f.Read(buf)
		if n > 0 {
			if off+n > len(want) || !bytes.Equal(buf[:n], want[off:off+n]) {
				return fmt.Errorf("%s: content differs at offset %d", path, off)
			}
			off += n
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				return err
			}
			break
		}
	}
	if off != len(want) {
		return fmt.Errorf("%s: read %d bytes, want %d", path, off, len(want))
	}
	return f.Close()
}

// fileReader adapts a workload.File to io.Reader for io.ReadFull.
type fileReader struct{ f workload.File }

func (r fileReader) Read(b []byte) (int, error) { return r.f.Read(b) }

func putDecimal(dst []byte, v int64) { copy(dst, fmt.Sprintf("%d", v)) }

func getDecimal(src []byte) int64 {
	var v int64
	for _, c := range src {
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + int64(c-'0')
	}
	return v
}

func splitPath(p string) (dir, name string) {
	i := strings.LastIndexByte(p, '/')
	return p[:i], p[i+1:]
}

// genBytes returns n seeded pseudo-random bytes.
func genBytes(seed uint64, n int) []byte {
	r := sim.NewRand(seed)
	b := make([]byte, n)
	for i := 0; i < n; i += 8 {
		v := r.Uint64()
		for j := i; j < min(i+8, n); j++ {
			b[j] = byte(v)
			v >>= 8
		}
	}
	return b
}

// shuffle is a seeded Fisher-Yates shuffle.
func shuffle(r *sim.Rand, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, int(r.Uint64()%uint64(i+1)))
	}
}
