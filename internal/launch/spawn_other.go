//go:build !unix

package launch

import "errors"

// spawnFleet fails: the launcher hands every rank its mesh as inherited
// AF_UNIX descriptors, which only a unix host can pass. Ranks started by
// hand (-listen/-rendezvous) still build their mesh over TCP anywhere.
func (s *Session) spawnFleet(string) error {
	return errors.New("launch: starting a worker fleet needs a unix host")
}
