// Package wal implements the durability substrate of a session: a
// segment-file write-ahead log of the ingested event stream (CRC-framed
// records, configurable fsync policy, segments removed once a checkpoint
// covers them), atomic checkpoints (temp-file + rename) tagged with
// the low watermark, and torn-tail-tolerant recovery scans. The filesystem
// is reached through the FS interface so tests can inject faults — failed
// writes, short writes, and "crash here" cut-offs at a chosen write.
//
// The record format has one version and has not changed since the log was
// introduced: a batch that closes time is appended as the same RecBatch and
// RecExpire records a separate batch and expiry always were, only in one
// Write (Log.Append), so logs written before and after that change scan,
// truncate and replay identically.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
)

// File is the writable handle the log appends to.
type File interface {
	io.Writer
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	Close() error
}

// FS is the directory the durability layer owns. All names are relative to
// its root; implementations must reject path separators in names.
type FS interface {
	// Create opens name for writing, truncating any existing content.
	Create(name string) (File, error)
	// Append opens name for appending, creating it if absent.
	Append(name string) (File, error)
	// Open opens name for reading.
	Open(name string) (io.ReadCloser, error)
	// List returns the names in the directory, sorted.
	List() ([]string, error)
	// Size returns name's length in bytes.
	Size(name string) (int64, error)
	// Truncate cuts name to size bytes (used to drop torn tails).
	Truncate(name string, size int64) error
	// Rename atomically renames oldName to newName (both relative).
	Rename(oldName, newName string) error
	// Remove deletes name; removing an absent name is an error.
	Remove(name string) error
}

// OsFS is the production FS: a directory on the local filesystem. NewOsFS
// creates the directory if needed.
type OsFS struct {
	dir string
}

// NewOsFS returns an FS rooted at dir, creating it (and parents) if absent.
func NewOsFS(dir string) (*OsFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	return &OsFS{dir: dir}, nil
}

// Dir returns the root directory.
func (fs *OsFS) Dir() string { return fs.dir }

func (fs *OsFS) path(name string) (string, error) {
	if name == "" || name != filepath.Base(name) {
		return "", fmt.Errorf("wal: invalid file name %q", name)
	}
	return filepath.Join(fs.dir, name), nil
}

// Create implements FS.
func (fs *OsFS) Create(name string) (File, error) {
	p, err := fs.path(name)
	if err != nil {
		return nil, err
	}
	return os.OpenFile(p, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

// Append implements FS.
func (fs *OsFS) Append(name string) (File, error) {
	p, err := fs.path(name)
	if err != nil {
		return nil, err
	}
	return os.OpenFile(p, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
}

// Open implements FS.
func (fs *OsFS) Open(name string) (io.ReadCloser, error) {
	p, err := fs.path(name)
	if err != nil {
		return nil, err
	}
	return os.Open(p)
}

// List implements FS.
func (fs *OsFS) List() ([]string, error) {
	ents, err := os.ReadDir(fs.dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Size implements FS.
func (fs *OsFS) Size(name string) (int64, error) {
	p, err := fs.path(name)
	if err != nil {
		return 0, err
	}
	st, err := os.Stat(p)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Truncate implements FS.
func (fs *OsFS) Truncate(name string, size int64) error {
	p, err := fs.path(name)
	if err != nil {
		return err
	}
	return os.Truncate(p, size)
}

// Rename implements FS.
func (fs *OsFS) Rename(oldName, newName string) error {
	po, err := fs.path(oldName)
	if err != nil {
		return err
	}
	pn, err := fs.path(newName)
	if err != nil {
		return err
	}
	return os.Rename(po, pn)
}

// Remove implements FS.
func (fs *OsFS) Remove(name string) error {
	p, err := fs.path(name)
	if err != nil {
		return err
	}
	return os.Remove(p)
}

// ErrInjected is the error every FaultFS operation returns once its
// configured fault has fired: the moment the simulated machine died.
var ErrInjected = errors.New("wal: injected fault")

// FaultConfig chooses where a FaultFS crashes. Write calls on all files are
// counted globally in order; the CrashAtWrite'th call fails.
type FaultConfig struct {
	// CrashAtWrite, when > 0, makes the Nth File.Write call (1-based,
	// counted across all files) fail, and every operation after it fail
	// too — the process "died" there.
	CrashAtWrite int64
	// ShortWrite makes the crashing write first persist roughly half its
	// bytes, producing a torn record for recovery to truncate.
	ShortWrite bool
}

// FaultFS wraps an FS and injects a crash at a configured write. After the
// fault fires, every subsequent operation returns ErrInjected — matching a
// dead process: nothing else reaches the disk.
type FaultFS struct {
	inner  FS
	cfg    FaultConfig
	writes atomic.Int64
	dead   atomic.Bool
}

// NewFaultFS wraps inner with the given fault configuration.
func NewFaultFS(inner FS, cfg FaultConfig) *FaultFS {
	return &FaultFS{inner: inner, cfg: cfg}
}

// Crashed reports whether the fault has fired.
func (f *FaultFS) Crashed() bool { return f.dead.Load() }

// Writes returns the number of Write calls observed so far.
func (f *FaultFS) Writes() int64 { return f.writes.Load() }

func (f *FaultFS) check() error {
	if f.dead.Load() {
		return ErrInjected
	}
	return nil
}

type faultFile struct {
	fs    *FaultFS
	inner File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if err := ff.fs.check(); err != nil {
		return 0, err
	}
	n := ff.fs.writes.Add(1)
	if ff.fs.cfg.CrashAtWrite > 0 && n >= ff.fs.cfg.CrashAtWrite {
		ff.fs.dead.Store(true)
		if ff.fs.cfg.ShortWrite && len(p) > 1 {
			// Persist a prefix, then die: the classic torn write.
			written, _ := ff.inner.Write(p[:len(p)/2])
			return written, ErrInjected
		}
		return 0, ErrInjected
	}
	return ff.inner.Write(p)
}

func (ff *faultFile) Sync() error {
	if err := ff.fs.check(); err != nil {
		return err
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error {
	// Close succeeds even after death: the wrapper must let the test's
	// recovery path release OS handles.
	return ff.inner.Close()
}

// Create implements FS.
func (f *FaultFS) Create(name string) (File, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// Append implements FS.
func (f *FaultFS) Append(name string) (File, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	inner, err := f.inner.Append(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

// Open implements FS.
func (f *FaultFS) Open(name string) (io.ReadCloser, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	return f.inner.Open(name)
}

// List implements FS.
func (f *FaultFS) List() ([]string, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	return f.inner.List()
}

// Size implements FS.
func (f *FaultFS) Size(name string) (int64, error) {
	if err := f.check(); err != nil {
		return 0, err
	}
	return f.inner.Size(name)
}

// Truncate implements FS.
func (f *FaultFS) Truncate(name string, size int64) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.inner.Truncate(name, size)
}

// Rename implements FS.
func (f *FaultFS) Rename(oldName, newName string) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.inner.Rename(oldName, newName)
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	if err := f.check(); err != nil {
		return err
	}
	return f.inner.Remove(name)
}
