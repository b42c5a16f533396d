package main

import (
	"time"

	"repro/internal/workload"
)

// OS boundary spans: the traced run hands each client a spanOS instead
// of the bare workload.M3OS, so every call into the OS layer is timed
// from outside, inclusive of everything the engine runs while the
// client is parked in it (m3 client, DTU, NoC, kernel, m3fs).

// osOp indexes the timed OS calls.
type osOp int

const (
	osOpen osOp = iota
	osClose
	osRead
	osWrite
	osStat
	osReadDir
	osMkdir
	osUnlink
	numOSOps
)

var osOpNames = [numOSOps]string{"open", "close", "read", "write", "stat", "readdir", "mkdir", "unlink"}

// spanRec collects the host duration of every OS call, per op.
type spanRec struct {
	ns [numOSOps][]float64
}

func (r *spanRec) add(op osOp, t0 time.Time) {
	r.ns[op] = append(r.ns[op], float64(time.Since(t0)))
}

// spanOS wraps a client's OS handle with boundary spans.
type spanOS struct {
	workload.OS
	rec *spanRec
}

func (o *spanOS) Open(path string, flags workload.OpenFlags) (workload.File, error) {
	t := time.Now()
	f, err := o.OS.Open(path, flags)
	o.rec.add(osOpen, t)
	if err != nil {
		return nil, err
	}
	return spanFile{File: f, rec: o.rec}, nil
}

func (o *spanOS) Stat(path string) (workload.Stat, error) {
	t := time.Now()
	st, err := o.OS.Stat(path)
	o.rec.add(osStat, t)
	return st, err
}

func (o *spanOS) Mkdir(path string) error {
	t := time.Now()
	err := o.OS.Mkdir(path)
	o.rec.add(osMkdir, t)
	return err
}

func (o *spanOS) Unlink(path string) error {
	t := time.Now()
	err := o.OS.Unlink(path)
	o.rec.add(osUnlink, t)
	return err
}

func (o *spanOS) ReadDir(path string) ([]string, error) {
	t := time.Now()
	names, err := o.OS.ReadDir(path)
	o.rec.add(osReadDir, t)
	return names, err
}

type spanFile struct {
	workload.File
	rec *spanRec
}

func (f spanFile) Read(b []byte) (int, error) {
	t := time.Now()
	n, err := f.File.Read(b)
	f.rec.add(osRead, t)
	return n, err
}

func (f spanFile) Write(b []byte) (int, error) {
	t := time.Now()
	n, err := f.File.Write(b)
	f.rec.add(osWrite, t)
	return n, err
}

func (f spanFile) Close() error {
	t := time.Now()
	err := f.File.Close()
	f.rec.add(osClose, t)
	return err
}
