//go:build unix

package launch

import (
	"fmt"
	"os"
	"os/exec"
	"syscall"
)

// spawnFleet starts every rank back to back over a mesh the launcher wires
// itself, as mpiexec hands its ranks a ready communicator: one AF_UNIX
// socketpair per rank pair, rank r inheriting its P−1 ends as fds 3, 4, …
// in peer-rank order (skipping itself) and told so by -inherited-mesh. No
// rank listens or dials, and none waits for another to boot. The
// launcher's copy of every end is closed right after the Start that
// inherited it, and on any failure: a dead worker's peers must see EOF,
// not a socket the launcher still holds open.
func (s *Session) spawnFleet(bin string) error {
	n := s.cfg.Ranks
	ends := make([][]*os.File, n) // ends[r][p] is rank r's end of its link to rank p
	for r := range ends {
		ends[r] = make([]*os.File, n)
	}
	defer func() {
		for _, row := range ends {
			closeFiles(row)
		}
	}()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b, err := socketpair()
			if err != nil {
				return fmt.Errorf("launch: wiring the rank mesh: %w", err)
			}
			ends[i][j], ends[j][i] = a, b
		}
	}
	for r := 0; r < n; r++ {
		cmd := s.command(bin, r)
		for p, f := range ends[r] {
			if p != r {
				cmd.ExtraFiles = append(cmd.ExtraFiles, f)
			}
		}
		w, err := startPiped(r, cmd)
		closeFiles(ends[r])
		if err != nil {
			s.reap()
			return fmt.Errorf("launch: spawning session rank %d: %w", r, err)
		}
		s.workers[r] = w
	}
	return nil
}

// startPiped starts cmd with its stdin and stdout on pipes the launcher
// keeps the *os.File ends of (Push sizes the stdin pipe to its frames).
// The child's ends are closed once it holds them.
func startPiped(rank int, cmd *exec.Cmd) (*sessWorker, error) {
	inR, inW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		inR.Close()
		inW.Close()
		return nil, err
	}
	cmd.Stdin, cmd.Stdout = inR, outW
	err = cmd.Start()
	inR.Close()
	outW.Close()
	if err != nil {
		inW.Close()
		outR.Close()
		return nil, err
	}
	return newSessWorker(rank, cmd, inW, outR), nil
}

// socketpair returns the two ends of a connected AF_UNIX stream, marked
// close-on-exec under syscall.ForkLock, so a spawn running concurrently
// inherits neither.
func socketpair() (*os.File, *os.File, error) {
	syscall.ForkLock.RLock()
	defer syscall.ForkLock.RUnlock()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		return nil, nil, os.NewSyscallError("socketpair", err)
	}
	syscall.CloseOnExec(fds[0])
	syscall.CloseOnExec(fds[1])
	return os.NewFile(uintptr(fds[0]), "mesh"), os.NewFile(uintptr(fds[1]), "mesh"), nil
}

// closeFiles closes and forgets every file in fs.
func closeFiles(fs []*os.File) {
	for i, f := range fs {
		if f != nil {
			f.Close()
			fs[i] = nil
		}
	}
}
