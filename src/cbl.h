// Umbrella header: the library's public API in one include.
//
//   #include "cbl.h"
//
// pulls in the provider/user/coordinator facade, the evaluation
// protocol (contract, ceremony, registry,
// state channel, replay auditor), the private-query stack (OPRF server/
// client, keyword store, wire formats), the chain substrate, and the
// analysis modules (capacity, game theory, anonymity). Individual module
// headers remain usable for finer-grained dependencies.
#pragma once

#include "blocklist/address.h"
#include "blocklist/generator.h"
#include "blocklist/io.h"
#include "blocklist/store.h"
#include "chain/blockchain.h"
#include "core/service.h"
#include "game/dos_economics.h"
#include "game/game.h"
#include "game/sortition_math.h"
#include "net/service_node.h"
#include "netsim/capacity.h"
#include "netsim/desim.h"
#include "oprf/anonymity.h"
#include "oprf/client.h"
#include "oprf/server.h"
#include "oprf/wire.h"
#include "voting/ceremony.h"
#include "voting/coercion_sim.h"
#include "voting/contract.h"
#include "voting/registry.h"
#include "voting/replay.h"
#include "voting/state_channel.h"
#include "voting/wire.h"
