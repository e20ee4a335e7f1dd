package engine

// SetFailedChannels lets external tests fail channels in cfg.
func SetFailedChannels(cfg *Config, chans ...int) { cfg.failedChannels = chans }
