package diff

import "wasabi"

// nopStream consumes every event class and discards the records, so the
// stream configuration exercises the full record-encoding and batching path.
type nopStream struct{}

func (nopStream) StreamCaps() wasabi.Cap  { return wasabi.AllCaps }
func (nopStream) Events(_ []wasabi.Event) {}
