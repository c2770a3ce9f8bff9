// Package fsio is the filesystem seam under the store's durability
// layer. Every byte the bundle writer persists — temp files, delta-log
// appends, fsyncs, renames — flows through the FS interface, so the
// save path has exactly one set of I/O call sites and each of them can
// be made to fail on demand. Production code uses OS(), a thin wrapper
// over package os with no behavior of its own; tests use FaultFS
// (fault.go), which wraps any FS and injects ENOSPC, EIO, short
// writes, failed fsyncs, and crash-at-an-arbitrary-operation — the
// failure model the store's recovery guarantees are proven against.
package fsio

import (
	"io"
	"io/fs"
	"os"
)

// File is the subset of *os.File the bundle writer needs. Implementations
// must behave like os.File: Write/WriteAt report an error whenever fewer
// bytes were persisted than requested, and Sync reports an error when the
// kernel could not get the bytes to stable storage.
type File interface {
	io.Writer
	io.WriterAt
	io.Closer
	Name() string
	Stat() (fs.FileInfo, error)
	Sync() error
	Truncate(size int64) error
	Chmod(mode fs.FileMode) error
}

// FS is the filesystem surface of the durability layer: everything the
// store does to disk is one of these seven operations. Implementations
// must match package os semantics error for error (fs.ErrNotExist for a
// missing file, and so on) — the recovery logic branches on them.
type FS interface {
	// CreateTemp creates a new temporary file in dir, like os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// OpenFile opens a file like os.OpenFile.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// ReadFile reads a whole file like os.ReadFile.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath, like os.Rename.
	Rename(oldpath, newpath string) error
	// Remove deletes a file like os.Remove.
	Remove(name string) error
}

// OS returns the real filesystem.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
