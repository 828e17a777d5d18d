package cliflags

import (
	"flag"
	"reflect"
	"testing"
	"time"
)

func TestRegisterDefaultsAndParse(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Log != "text" || c.EarlyExit {
		t.Fatalf("unexpected defaults: %+v", c)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	c = RegisterCampaign(fs)
	err := fs.Parse([]string{
		"-workers", "8",
		"-journal", "/tmp/j", "-resume", "-progress",
		"-metrics-addr", "localhost:9090", "-forensics", "-log", "json",
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers != 8 || !c.EarlyExit ||
		c.Journal != "/tmp/j" || !c.Resume || !c.Progress ||
		c.MetricsAddr != "localhost:9090" || !c.Forensics || c.Log != "json" {
		t.Fatalf("parsed values wrong: %+v", c)
	}
}

// TestFlagNamesPinned pins the exact flag surface of the three registrars,
// so adding (or dropping) a knob is a visible one-line diff in review.
// Register is all avgisim shares: it has no -progress/-metrics-addr, no
// -journal/-resume, no -early-exit, no -workers and no fleet flags.
func TestFlagNamesPinned(t *testing.T) {
	names := func(register func(*flag.FlagSet)) []string {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		register(fs)
		var out []string
		fs.VisitAll(func(f *flag.Flag) { out = append(out, f.Name) }) // sorted by name
		return out
	}
	both := names(func(fs *flag.FlagSet) { Register(fs) })
	if want := []string{
		"cpuprofile", "forensics", "log", "memprofile",
	}; !reflect.DeepEqual(both, want) {
		t.Errorf("Register flags:\n got %q\nwant %q", both, want)
	}
	campaign := names(func(fs *flag.FlagSet) { RegisterCampaign(fs) })
	if want := []string{
		"coordinator", "cpuprofile", "dist-owner", "dist-role", "early-exit",
		"forensics", "journal", "lease-ttl", "log", "memprofile",
		"metrics-addr", "progress", "resume", "workers",
	}; !reflect.DeepEqual(campaign, want) {
		t.Errorf("RegisterCampaign flags:\n got %q\nwant %q", campaign, want)
	}
	server := names(func(fs *flag.FlagSet) { RegisterServer(fs) })
	if want := []string{
		"addr", "coordinator", "dist-owner", "dist-role", "drain-timeout",
		"journal", "lease-ttl", "log", "shard-cache", "workers",
	}; !reflect.DeepEqual(server, want) {
		t.Errorf("RegisterServer flags:\n got %q\nwant %q", server, want)
	}
}

func TestStartProfilesNoop(t *testing.T) {
	c := &Common{}
	stop, err := c.StartProfiles(func(string) { t.Error("unexpected error log") })
	if err != nil {
		t.Fatal(err)
	}
	stop()
	stop() // idempotent
}

func TestRegisterServerDefaults(t *testing.T) {
	fs := flag.NewFlagSet("avgid", flag.ContinueOnError)
	s := RegisterServer(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if s.Addr == "" || s.Journal == "" || s.Log != "text" {
		t.Errorf("server defaults: %+v", s)
	}
	if s.DrainTimeout <= 0 {
		t.Errorf("drain timeout default %v must be positive", s.DrainTimeout)
	}
	if err := fs.Parse([]string{"-addr", ":0", "-journal", "", "-workers", "3", "-drain-timeout", "5s"}); err != nil {
		t.Fatal(err)
	}
	if s.Addr != ":0" || s.Journal != "" || s.Workers != 3 || s.DrainTimeout != 5*time.Second {
		t.Errorf("server flags not parsed: %+v", s)
	}
}
