// Package atomicwrite is golden-test input for the durable-write
// discipline rule.
package atomicwrite

import "os"

func persistRaw(path string, data []byte) error {
	return os.WriteFile(path, data, 0o600) // want "raw os.WriteFile"
}

func createRaw(path string) (*os.File, error) {
	return os.Create(path) // want "raw os.Create"
}

func openCreate(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o600) // want "raw os.OpenFile"
}

func openExisting(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_RDWR, 0o600) // no O_CREATE: not a persistence call
}

func fileWriteRaw(f *os.File, data []byte) error {
	_, err := f.Write(data) // want "raw (*os.File).Write"
	return err
}

func renameBare(tmp, final string) error {
	return os.Rename(tmp, final) // want "no fsync of the renamed file before it and no parent-dir sync"
}

func renameNoDirSync(f *os.File, tmp, final string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	return os.Rename(tmp, final) // want "not followed by a parent-directory sync"
}

func renameNoSyncBefore(dir *os.File, tmp, final string) error {
	if err := os.Rename(tmp, final); err != nil { // want "not preceded by an fsync"
		return err
	}
	return dir.Sync()
}

// atomicReplace carries the full discipline: fsync before the rename,
// parent-dir sync after. No findings.
func atomicReplace(f *os.File, tmp, final, parent string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return syncDir(parent)
}

func syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// atomicWriteFile is on the approved-writer list (under this package's
// path): raw primitives are allowed inside it, but its rename still
// needs the full discipline.
func atomicWriteFile(f *os.File, path string, data []byte) error {
	if err := os.WriteFile(path+".tmp", data, 0o600); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		return err
	}
	return syncDir(path)
}

// store.Write shares its name with statedir.Dir.Write, but approval is
// keyed by package path and name together: outside statedir a method
// named Write gets no exemption.
type store struct{ path string }

func (s *store) Write(data []byte) error {
	return os.WriteFile(s.path, data, 0o600) // want "raw os.WriteFile"
}

func writeDiagnostic(path string, data []byte) error {
	//lint:allow atomicwrite diagnostic artifact for the golden test; durability deliberately not needed
	return os.WriteFile(path, data, 0o600)
}
