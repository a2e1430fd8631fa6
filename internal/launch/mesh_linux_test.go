package launch

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"goparsvd/internal/mat"
	"goparsvd/internal/testutil"
)

// TestLaunchedRanksUseNoTCP: every socket a launched worker holds is one
// of its inherited AF_UNIX mesh links — one per peer, listed in
// /proc/net/unix and none in /proc/net/tcp or tcp6 — so no rank listens,
// dials or rendezvouses over TCP. That the first Push succeeded means no
// rank sent a RENDEZVOUS frame: a PUSH accepts only OK replies.
func TestLaunchedRanksUseNoTCP(t *testing.T) {
	const ranks = 3
	s, err := StartSession(SessionConfig{Ranks: ranks, WorkerBin: testWorker(t), Spec: EngineSpec{K: 2, FF: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Push(testutil.RandomDense(9, 3, testutil.NewRand(8))); err != nil {
		t.Fatal(err)
	}
	unix := procNetInodes(t, "/proc/net/unix", 6)
	tcp := procNetInodes(t, "/proc/net/tcp", 9)
	for ino := range procNetInodes(t, "/proc/net/tcp6", 9) {
		tcp[ino] = true
	}
	for r, pid := range s.WorkerPIDs() {
		socks := socketInodes(t, pid)
		if len(socks) != ranks-1 {
			t.Errorf("rank %d holds %d sockets, want its %d mesh links", r, len(socks), ranks-1)
		}
		for _, ino := range socks {
			if tcp[ino] {
				t.Errorf("rank %d holds TCP socket %s", r, ino)
			}
			if !unix[ino] {
				t.Errorf("rank %d holds socket %s, not an AF_UNIX one", r, ino)
			}
		}
	}
}

// TestPushSizesStdinPipe: the first batch grows each rank's stdin pipe to
// hold that rank's whole PUSH frame, and no pipe is grown before a frame
// needs it.
func TestPushSizesStdinPipe(t *testing.T) {
	s, err := StartSession(SessionConfig{Ranks: 2, WorkerBin: testWorker(t), Spec: EngineSpec{K: 2, FF: 1}, Stderr: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pipeSize := func(w *sessWorker) int {
		rc, err := w.stdin.SyscallConn()
		if err != nil {
			t.Fatal(err)
		}
		var size uintptr
		var errno syscall.Errno
		rc.Control(func(fd uintptr) {
			size, _, errno = syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_GETPIPE_SZ, 0)
		})
		if errno != 0 {
			t.Fatal(errno)
		}
		return int(size)
	}
	const defaultPipe = 64 << 10
	for _, w := range s.workers {
		if got := pipeSize(w); got != defaultPipe {
			t.Fatalf("rank %d stdin pipe holds %d bytes before any push, want the default %d", w.rank, got, defaultPipe)
		}
	}
	// 2048 rows of 16 per rank: a 262 KB frame, 4× the default pipe.
	batch := testutil.RandomDense(4096, 16, testutil.NewRand(5))
	if err := s.Push(batch); err != nil {
		t.Fatal(err)
	}
	for _, w := range s.workers {
		var rows mat.Dense
		batch.ViewRows(s.parts[w.rank].Start, s.parts[w.rank].End, &rows)
		if got, frame := pipeSize(w), pushFrameLen(&rows); got < frame {
			t.Errorf("rank %d stdin pipe holds %d bytes, less than its %d-byte frame", w.rank, got, frame)
		}
	}
}

// TestSessionDescriptorHygiene: 20 healthy sessions and 20 whose workers
// exit at once (which the first Push finds) leave this process with no
// more descriptors and no more child processes than before. A socketpair end the launcher kept open
// would hide a dead worker from its peers until the idle timeout.
func TestSessionDescriptorHygiene(t *testing.T) {
	bin := testWorker(t)
	failing := filepath.Join(t.TempDir(), "exit1")
	if err := os.WriteFile(failing, []byte("#!/bin/sh\nexit 1\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	batch := testutil.RandomDense(16, 3, testutil.NewRand(4))
	cfg := SessionConfig{Ranks: 3, WorkerBin: bin, Spec: EngineSpec{K: 2, FF: 1}, Stderr: io.Discard}
	healthy := func() {
		s, err := StartSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Push(batch); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	healthy() // warm the runtime's own descriptors (poller, /dev/null)
	fds, kids := countFDs(t), countChildren(t)

	for i := 0; i < 20; i++ {
		healthy()
	}
	bad := cfg
	bad.WorkerBin = failing
	for i := 0; i < 20; i++ {
		s, err := StartSession(bad)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Push(batch); err == nil {
			s.Close()
			t.Fatal("a fleet of workers that exit 1 took a push")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n := countFDs(t); n > fds {
		t.Errorf("open descriptors grew from %d to %d over 40 sessions", fds, n)
	}
	if n := countChildren(t); n > kids {
		t.Errorf("child processes grew from %d to %d over 40 sessions", kids, n)
	}
}

// socketInodes lists the inodes of the sockets process pid holds open.
func socketInodes(t *testing.T, pid int) []string {
	t.Helper()
	dir := "/proc/" + strconv.Itoa(pid) + "/fd"
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var inodes []string
	for _, e := range ents {
		link, err := os.Readlink(filepath.Join(dir, e.Name()))
		if err == nil && strings.HasPrefix(link, "socket:[") {
			inodes = append(inodes, strings.TrimSuffix(strings.TrimPrefix(link, "socket:["), "]"))
		}
	}
	return inodes
}

// procNetInodes reads the inode column (0-based field col) of a
// /proc/net socket table.
func procNetInodes(t *testing.T, path string, col int) map[string]bool {
	t.Helper()
	inodes := map[string]bool{}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return inodes // e.g. no IPv6 in this network namespace
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Scan() // header
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) > col {
			inodes[fields[col]] = true
		}
	}
	return inodes
}

func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// countChildren counts the processes, zombies included, whose parent is
// this one.
func countChildren(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	self, n := strconv.Itoa(os.Getpid()), 0
	for _, e := range ents {
		if _, err := strconv.Atoi(e.Name()); err != nil {
			continue
		}
		stat, err := os.ReadFile("/proc/" + e.Name() + "/stat")
		if err != nil {
			continue // exited while we looked
		}
		// Fields after the parenthesised command name: state, ppid, …
		if i := strings.LastIndexByte(string(stat), ')'); i >= 0 {
			if f := strings.Fields(string(stat[i+1:])); len(f) > 1 && f[1] == self {
				n++
			}
		}
	}
	return n
}
