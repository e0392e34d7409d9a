package main

import (
	"os"
	"syscall"
	"unsafe"
)

// spreadSubdirs asks the filesystem to place each new subdirectory of dir
// in a block group of its own (the ext4 "top of hierarchy" flag; a no-op
// where the filesystem lacks it). On ext4 without a journal, every file
// creation in a block group steps over the inodes freed there in the last
// 30 seconds, so a run placed beside the files the previous run (or set-up
// build) just deleted paid up to twice the processor time per log entry.
func spreadSubdirs(dir string) {
	const (
		getFlags = 0x80086601 // FS_IOC_GETFLAGS
		setFlags = 0x40086602 // FS_IOC_SETFLAGS
		topDir   = 0x00020000 // FS_TOPDIR_FL
	)
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	var flags int32
	if _, _, errno := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), getFlags, uintptr(unsafe.Pointer(&flags))); errno != 0 {
		return
	}
	flags |= topDir
	syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), setFlags, uintptr(unsafe.Pointer(&flags)))
}
